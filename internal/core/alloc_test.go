package core

import (
	"testing"

	"hypersolve/internal/apps"
	"hypersolve/internal/mapping"
	"hypersolve/internal/mesh"
)

// TestAllocsPerFrameBudget is the layer 1-4 gate beside
// sat.TestSATSolveAllocBudget: fib has a negligible layer 5, so allocations
// per frame of one fib(15) solve on an 8x8 torus under round-robin are the
// programming model's own, machine build included. Measured when the budget
// was set: 14 240 allocations over 1973 frames, 7.22 per frame, after layer 3
// stopped keeping a per-ticket destination map and layer 2 a per-activation
// queue (before that 14 835, 7.52; before pooled workers — a coroutine, a
// frame and a call group per frame, two boxed envelopes and a context per
// message — 49 534, 25.11); repeated runs differ by a handful of
// allocations, which is the slack.
func TestAllocsPerFrameBudget(t *testing.T) {
	const budget = 7.3 // allocations per frame
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
