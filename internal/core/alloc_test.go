package core

import (
	"testing"

	"hypersolve/internal/apps"
	"hypersolve/internal/mapping"
	"hypersolve/internal/mesh"
	"hypersolve/internal/sat"
)

// TestAllocsPerFrameBudget is the layer 1-4 gate beside
// sat.TestSATSolveAllocBudget: fib has a negligible layer 5, so allocations
// per frame of one fib(15) solve on an 8x8 torus under round-robin are the
// programming model's own, machine build included. Measured when the budget
// was set: 13 270 allocations over 1973 frames, 6.73 per frame, once the
// machine's skeleton came from the cache and its run state from slabs
// (before that 14 240, 7.22, after layer 3 stopped keeping a per-ticket
// destination map and layer 2 a per-activation queue; before that 14 835,
// 7.52; before pooled workers — a coroutine, a frame and a call group per
// frame, two boxed envelopes and a context per message — 49 534, 25.11);
// repeated runs differ by a handful of allocations, which is the 0.08 of
// slack.
func TestAllocsPerFrameBudget(t *testing.T) {
	const budget = 6.81 // allocations per frame
	cfg := Config{Topology: mesh.MustTorus(8, 8), Mapper: mapping.NewRoundRobin(), Task: apps.FibTask(), Seed: 1}
	var frames int64
	allocs := testing.AllocsPerRun(3, func() {
		res, err := RunOnce(cfg, 15)
		if err != nil || !res.OK {
			t.Fatalf("fib(15): ok=%v err=%v", res.OK, err)
		}
		frames = 0
		for _, f := range res.FramesPerProcess {
			frames += f
		}
	})
	t.Logf("%.0f allocations over %d frames: %.2f per frame", allocs, frames, allocs/float64(frames))
	if perFrame := allocs / float64(frames); perFrame > budget {
		t.Errorf("fib(15) made %.2f allocations per frame (%.0f over %d frames), budget %.2f",
			perFrame, allocs, frames, budget)
	}
}

// TestMachineBuildAllocBudget pins what New allocates for a machine whose
// skeleton is cached: the run state of layers 1-4 in slabs, a fixed number
// of allocations whatever the machine's size. The machine is the service's
// uf20 job shape (torus:14x14, lbn). Measured when the budget was set: 30
// allocations (2 389 before the skeleton cache and the slabs); New is
// deterministic, so the slack of 2 only absorbs a runtime that boxes
// differently.
func TestMachineBuildAllocBudget(t *testing.T) {
	const budget = 32
	cfg := Config{Topology: mesh.MustParse("torus:14x14"), Mapper: mapping.NewLeastBusy(), Task: sat.Task(sat.FirstUnassigned)}
	if _, err := New(cfg); err != nil { // warm the skeleton cache
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := New(cfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("New made %.0f allocations", allocs)
	if allocs > budget {
		t.Errorf("New on a cached skeleton made %.0f allocations, budget %d", allocs, budget)
	}
}

// TestRandomMapperAllocBudget pins what a small job costs under the random
// mapper: fib(5) on torus:14x14 maps work on a handful of the 196 nodes, and
// only those make their random source. Measured when the budget was set:
// 474 allocations and 199 KB per run (round-robin: 477, 182 KB), against 858
// and 1.24 MB when every node seeded a source at network initialisation.
func TestRandomMapperAllocBudget(t *testing.T) {
	const budget = 520
	cfg := Config{Topology: mesh.MustParse("torus:14x14"), Mapper: mapping.NewRandom(), Task: apps.FibTask(), Seed: 1}
	allocs := testing.AllocsPerRun(20, func() {
		res, err := RunOnce(cfg, 5)
		if err != nil || !res.OK {
			t.Fatalf("fib(5): ok=%v err=%v", res.OK, err)
		}
	})
	t.Logf("fib(5) under random made %.0f allocations", allocs)
	if allocs > budget {
		t.Errorf("fib(5) on torus:14x14 under random made %.0f allocations, budget %d", allocs, budget)
	}
}
