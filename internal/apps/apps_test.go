package apps

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hypersolve/internal/mapping"
	"hypersolve/internal/mesh"
	"hypersolve/internal/recursion"
)

// runTask executes a task on a simulated machine and returns the root value.
func runTask(t *testing.T, topo mesh.Topology, mapper mapping.Factory, task recursion.Task, arg recursion.Value) recursion.Value {
	t.Helper()
	net, err := mapping.New(mapping.Config{
		Physical: topo,
		Mapper:   mapper,
		Factory:  recursion.AppFactory(task),
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Trigger(0, arg); err != nil {
		t.Fatal(err)
	}
	if stats := net.Run(); !stats.Quiescent {
		t.Fatal("run did not quiesce")
	}
	v, ok := net.App(0).(*recursion.Runtime).RootResult()
	if !ok {
		t.Fatal("no root result")
	}
	return v
}

func TestSumTask(t *testing.T) {
	got := runTask(t, mesh.MustTorus(5, 5), mapping.NewRoundRobin(), SumTask(), 15)
	if got.(int) != 120 {
		t.Errorf("sum(15) = %v, want 120", got)
	}
}

func TestFibTaskMatchesSequential(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 11} {
		got := runTask(t, mesh.MustTorus(4, 4), mapping.NewLeastBusy(), FibTask(), n)
		if want := FibSeq(n); got.(int) != want {
			t.Errorf("fib(%d) = %v, want %d", n, got, want)
		}
	}
}

func TestUnbalancedTask(t *testing.T) {
	for _, d := range []int{0, 1, 4, 8} {
		got := runTask(t, mesh.MustTorus(4, 4), mapping.NewWeighted(1), UnbalancedTask(), d)
		if want := UnbalancedSeq(d); got.(int) != want {
			t.Errorf("unbalanced(%d) = %v, want %d", d, got, want)
		}
	}
}

func TestQueensSeqKnownCounts(t *testing.T) {
	want := map[int]int{1: 1, 2: 0, 3: 0, 4: 2, 5: 10, 6: 4, 7: 40, 8: 92}
	for n, w := range want {
		if got := QueensSeq(n); got != w {
			t.Errorf("QueensSeq(%d) = %d, want %d", n, got, w)
		}
	}
}

func TestQueensTaskMatchesSequential(t *testing.T) {
	for _, n := range []int{4, 5, 6} {
		got := runTask(t, mesh.MustTorus(5, 5), mapping.NewRoundRobin(),
			QueensTask(2), QueensState{N: n})
		if want := QueensSeq(n); got.(int) != want {
			t.Errorf("distributed queens(%d) = %v, want %d", n, got, want)
		}
	}
}

func TestQueensCutoffEquivalence(t *testing.T) {
	// All grain sizes must count the same solutions.
	for _, cutoff := range []int{0, 1, 3, 10} {
		got := runTask(t, mesh.MustTorus(4, 4), mapping.NewLeastBusy(),
			QueensTask(cutoff), QueensState{N: 6})
		if got.(int) != 4 {
			t.Errorf("cutoff %d: queens(6) = %v, want 4", cutoff, got)
		}
	}
}

func TestKnapsackOracles(t *testing.T) {
	items := []Item{{Weight: 3, Value: 4}, {Weight: 2, Value: 3}, {Weight: 4, Value: 5}, {Weight: 5, Value: 8}}
	if got, want := knapsackSeq(NewKnapsack(items, 9)), KnapsackDP(items, 9); got != want {
		t.Errorf("knapsackSeq = %d, DP = %d", got, want)
	}
}

func TestPropertyKnapsackSeqMatchesDP(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{Weight: 1 + rng.Intn(9), Value: 1 + rng.Intn(20)}
		}
		capacity := 5 + rng.Intn(25)
		return knapsackSeq(NewKnapsack(items, capacity)) == KnapsackDP(items, capacity)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestKnapsackTaskMatchesDP(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 5; trial++ {
		n := 6 + rng.Intn(5)
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{Weight: 1 + rng.Intn(8), Value: 1 + rng.Intn(15)}
		}
		capacity := 10 + rng.Intn(15)
		want := KnapsackDP(items, capacity)
		got := runTask(t, mesh.MustTorus(4, 4), mapping.NewWeighted(1),
			KnapsackTask(2), NewKnapsack(items, capacity))
		if got.(int) != want {
			t.Errorf("trial %d: distributed knapsack = %v, want %d", trial, got, want)
		}
	}
}

func TestKnapsackBound(t *testing.T) {
	p := NewKnapsack([]Item{{Weight: 2, Value: 10}, {Weight: 4, Value: 10}}, 4)
	// Fractional bound: item 1 fully (10) + half of item 2 (5) = 15.
	if b := p.Bound(); b < 14.9 || b > 15.1 {
		t.Errorf("Bound = %v, want 15", b)
	}
}

func TestTraversalVisitsEverythingAtDistance(t *testing.T) {
	for _, topo := range []mesh.Topology{
		mesh.MustTorus(6, 6),
		mesh.MustHypercube(5),
		mesh.MustGrid(5, 4),
	} {
		steps, stats, err := RunTraversal(topo, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !stats.Quiescent {
			t.Fatalf("%s: traversal did not quiesce", topo.Name())
		}
		for n, s := range steps {
			if s < 0 {
				t.Errorf("%s: node %d unreachable", topo.Name(), n)
				continue
			}
			if d := int64(topo.Distance(0, mesh.NodeID(n))); s < d {
				t.Errorf("%s: node %d visited at %d before distance %d", topo.Name(), n, s, d)
			}
		}
	}
}

func TestQueensEdgeCases(t *testing.T) {
	if got := QueensSeq(0); got != 1 {
		t.Errorf("QueensSeq(0) = %d, want 1 (empty placement)", got)
	}
	got := runTask(t, mesh.MustTorus(4, 4), mapping.NewRoundRobin(), QueensTask(0), QueensState{N: 1})
	if got.(int) != 1 {
		t.Errorf("queens(1) = %v, want 1", got)
	}
	// N=3 has no solutions; the distributed count must agree.
	got = runTask(t, mesh.MustTorus(4, 4), mapping.NewRoundRobin(), QueensTask(0), QueensState{N: 3})
	if got.(int) != 0 {
		t.Errorf("queens(3) = %v, want 0", got)
	}
}

func TestKnapsackEdgeCases(t *testing.T) {
	// Zero capacity: nothing fits.
	items := []Item{{Weight: 2, Value: 10}, {Weight: 3, Value: 5}}
	if got := knapsackSeq(NewKnapsack(items, 0)); got != 0 {
		t.Errorf("zero-capacity value = %d, want 0", got)
	}
	if got := KnapsackDP(items, 0); got != 0 {
		t.Errorf("DP zero-capacity value = %d, want 0", got)
	}
	// Capacity fits everything.
	if got, want := knapsackSeq(NewKnapsack(items, 5)), 15; got != want {
		t.Errorf("all-fit value = %d, want %d", got, want)
	}
	// No items.
	if got := knapsackSeq(NewKnapsack(nil, 10)); got != 0 {
		t.Errorf("no-items value = %d, want 0", got)
	}
}

func TestTraversalOnStarAndRing(t *testing.T) {
	for _, topo := range []mesh.Topology{mesh.MustStar(9), mesh.MustRing(9)} {
		steps, stats, err := RunTraversal(topo, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !stats.Quiescent {
			t.Fatalf("%s: no quiescence", topo.Name())
		}
		for n, s := range steps {
			if s < 0 {
				t.Errorf("%s: node %d unreachable", topo.Name(), n)
			}
		}
	}
}

func TestTraversalMaxStepsAbort(t *testing.T) {
	// With MaxSteps 1 the flood cannot finish on a large ring.
	_, stats, err := RunTraversal(mesh.MustRing(64), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Quiescent {
		t.Error("expected abort before quiescence")
	}
}
