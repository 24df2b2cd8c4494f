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
// decide, the remaining capacity and the value accumulated so far. It
// carries no incumbent: a hyperspace machine has no global state to keep
// one fresh, so only the sequential tail (knapsackSeq) prunes against one.
type KnapsackProblem struct {
	Items    []Item // sorted by value density, descending
	Index    int
	Capacity int
	Value    int
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
// frame decides one item (include / exclude) and reduces with max. Above the
// cutoff a frame prunes only a branch whose fractional bound is zero, one
// where no remaining item can add value; at or below it, knapsackSeq prunes
// against its live local incumbent. cutoff is the sequential grain size, as
// in QueensTask.
func KnapsackTask(cutoff int) recursion.Task {
	return func(f *recursion.Frame, arg recursion.Value) recursion.Value {
		p := arg.(KnapsackProblem)
		if p.Index >= len(p.Items) {
			return p.Value
		}
		if len(p.Items)-p.Index <= cutoff {
			return knapsackSeq(p)
		}
		if p.Bound() <= 0 {
			return p.Value // nothing left can add value; stop branching
		}
		it := p.Items[p.Index]
		if it.Weight <= p.Capacity {
			include := p
			include.Index++
			include.Capacity -= it.Weight
			include.Value += it.Value
			f.CallHinted(include, float64(len(p.Items)-p.Index))
		}
		exclude := p
		exclude.Index++
		f.CallHinted(exclude, float64(len(p.Items)-p.Index))
		best := p.Value
		for _, v := range f.Sync() {
			if got := v.(int); got > best {
				best = got
			}
		}
		return best
	}
}

// knapsackSeq finishes a sub-problem sequentially by branch and bound,
// pruning every branch whose fractional bound cannot beat a live local
// incumbent that starts at 0.
func knapsackSeq(p KnapsackProblem) int {
	best := 0
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
	rec(p) // its first call raises best to p.Value
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
