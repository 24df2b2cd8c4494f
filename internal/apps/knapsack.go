package apps

import (
	"sort"

	"hypersolve/internal/recursion"
)

// Item is one 0/1 knapsack item.
type Item struct {
	Weight int
	Value  int
}

// KnapsackProblem is the sub-problem payload of the branch-and-bound
// knapsack solver: the item list (shared, never mutated), the next item to
// decide, the remaining capacity and the value accumulated so far.
type KnapsackProblem struct {
	Items    []Item // sorted by value density, descending
	Index    int
	Capacity int
	Value    int
	// Best is the value of the incumbent known when this sub-problem was
	// spawned; branches whose optimistic bound cannot beat it are pruned.
	// With no global state on a hyperspace machine the incumbent is only
	// as fresh as the spawn time — a documented trade-off.
	Best int
}

// NewKnapsack builds a root problem, sorting items by value density
// (descending) so the fractional bound is tight.
func NewKnapsack(items []Item, capacity int) KnapsackProblem {
	sorted := append([]Item(nil), items...)
	sort.SliceStable(sorted, func(i, j int) bool {
		return sorted[i].Value*sorted[j].Weight > sorted[j].Value*sorted[i].Weight
	})
	return KnapsackProblem{Items: sorted, Capacity: capacity}
}

// Bound returns the fractional-relaxation upper bound on the achievable
// value from this sub-problem.
func (p KnapsackProblem) Bound() float64 {
	bound := float64(p.Value)
	cap := p.Capacity
	for i := p.Index; i < len(p.Items) && cap > 0; i++ {
		it := p.Items[i]
		if it.Weight <= cap {
			bound += float64(it.Value)
			cap -= it.Weight
		} else {
			bound += float64(it.Value) * float64(cap) / float64(it.Weight)
			cap = 0
		}
	}
	return bound
}

// KnapsackTask solves 0/1 knapsack by fork-join branch and bound: each
// frame decides one item (include / exclude), prunes branches whose
// fractional bound cannot beat the spawn-time incumbent, and reduces with
// max. cutoff is the sequential grain size, as in QueensTask.
func KnapsackTask(cutoff int) recursion.Task {
	return func(f *recursion.Frame, arg recursion.Value) recursion.Value {
		p := arg.(KnapsackProblem)
		if p.Index >= len(p.Items) {
			return p.Value
		}
		if len(p.Items)-p.Index <= cutoff {
			return knapsackSeq(p)
		}
		if p.Bound() <= float64(p.Best) {
			return p.Value // cannot beat the incumbent; stop branching
		}
		it := p.Items[p.Index]
		spawned := 0
		if it.Weight <= p.Capacity {
			include := p
			include.Index++
			include.Capacity -= it.Weight
			include.Value += it.Value
			f.CallHinted(include, float64(len(p.Items)-p.Index))
			spawned++
		}
		exclude := p
		exclude.Index++
		f.CallHinted(exclude, float64(len(p.Items)-p.Index))
		spawned++
		best := p.Value
		for _, v := range f.Sync() {
			if got := v.(int); got > best {
				best = got
			}
		}
		_ = spawned
		return best
	}
}

// knapsackSeq finishes a sub-problem sequentially with the same
// branch-and-bound rule (using a live local incumbent).
func knapsackSeq(p KnapsackProblem) int {
	best := p.Best
	var rec func(p KnapsackProblem)
	rec = func(p KnapsackProblem) {
		if p.Value > best {
			best = p.Value
		}
		if p.Index >= len(p.Items) || p.Bound() <= float64(best) {
			return
		}
		it := p.Items[p.Index]
		if it.Weight <= p.Capacity {
			include := p
			include.Index++
			include.Capacity -= it.Weight
			include.Value += it.Value
			rec(include)
		}
		exclude := p
		exclude.Index++
		rec(exclude)
	}
	rec(p)
	if best < p.Value {
		return p.Value
	}
	return best
}

// KnapsackDP solves the problem by dynamic programming — an independent
// oracle for tests (O(n*capacity)).
func KnapsackDP(items []Item, capacity int) int {
	best := make([]int, capacity+1)
	for _, it := range items {
		for c := capacity; c >= it.Weight; c-- {
			if v := best[c-it.Weight] + it.Value; v > best[c] {
				best[c] = v
			}
		}
	}
	return best[capacity]
}
