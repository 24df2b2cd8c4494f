package simulator

import (
	"context"
	"reflect"
	"testing"

	"hypersolve/internal/mesh"
)

// emptyTopo is a zero-slot machine: no nodes, no links. The sweep loop
// never exercised this (its per-step slot loops all run zero iterations);
// the event engine must agree that such a machine executes exactly one
// quiescent step.
type emptyTopo struct{}

func (emptyTopo) Name() string                         { return "empty" }
func (emptyTopo) Size() int                            { return 0 }
func (emptyTopo) Degree(mesh.NodeID) int               { return 0 }
func (emptyTopo) Neighbours(mesh.NodeID) []mesh.NodeID { return nil }
func (emptyTopo) Coords(mesh.NodeID) []int             { return nil }
func (emptyTopo) Dims() []int                          { return []int{0} }
func (emptyTopo) Distance(a, b mesh.NodeID) int        { return 0 }

func bothEngines(t *testing.T, run func(t *testing.T, eng loop) Stats) {
	t.Helper()
	sweep := run(t, sweepLoop)
	event := run(t, eventLoop)
	if !reflect.DeepEqual(sweep, event) {
		t.Fatalf("engines diverge:\n sweep: %+v\n event: %+v", sweep, event)
	}
}

// TestZeroSlotMachine runs a machine with no nodes at all.
func TestZeroSlotMachine(t *testing.T) {
	run := func(t *testing.T, eng loop) Stats {
		sim, err := NewSkeleton(emptyTopo{}).New(func(mesh.NodeID) Handler { panic("no slots to build") }, Config{})
		if err != nil {
			t.Fatalf("New(%s): %v", eng, err)
		}
		return eng.run(context.Background(), sim)
	}
	bothEngines(t, run)
	stats := run(t, eventLoop)
	if !stats.Quiescent || stats.Steps != 1 {
		t.Fatalf("zero-slot machine: stats %+v, want one quiescent step", stats)
	}
}

// TestMaxStepsZero checks that an unset horizon selects the documented 4M
// default identically on both engines (the run quiesces long before it).
func TestMaxStepsZero(t *testing.T) {
	c := Case{Topo: "ring:5", Workload: "chain", Param: 8, LinkLatency: 3,
		DeliverPerStep: 1, MaxSteps: 0, RecordSeries: true}
	assertIdentical(t, c)
	res := runEngine(t, c, eventLoop)
	if !res.stats.Quiescent {
		t.Fatalf("stats %+v, want quiescent under the default horizon", res.stats)
	}
}

// TestMessageDueExactlyAtMaxSteps pins the off-by-one at the horizon: a
// message whose arrival step equals MaxSteps is never delivered (steps are
// 0-based, the horizon exclusive), while arrival at MaxSteps-1 is. Both
// engines must agree on both sides of the boundary.
func TestMessageDueExactlyAtMaxSteps(t *testing.T) {
	const lat = 50
	run := func(maxSteps int64) func(t *testing.T, eng loop) Stats {
		return func(t *testing.T, eng loop) Stats {
			tr := &trace{}
			sim, err := NewSkeleton(mesh.MustRing(3)).New(func(n mesh.NodeID) Handler {
				return &chainHandler{tr: tr, node: n, hops: 0}
			}, Config{
				LinkConfig: LinkConfig{LinkLatency: lat},
				MaxSteps:   maxSteps,
			})
			if err != nil {
				t.Fatalf("New(%s): %v", eng, err)
			}
			return eng.run(context.Background(), sim)
		}
	}

	// The chain's Init send flushes at step 0 and arrives at step lat.
	t.Run("due-at-horizon", func(t *testing.T) {
		bothEngines(t, run(lat))
		stats := run(lat)(t, eventLoop)
		if stats.Quiescent || stats.TotalDelivered != 0 || stats.Steps != lat {
			t.Fatalf("stats %+v, want undelivered truncation at step %d", stats, lat)
		}
	})
	t.Run("due-inside-horizon", func(t *testing.T) {
		bothEngines(t, run(lat+1))
		stats := run(lat+1)(t, eventLoop)
		if !stats.Quiescent || stats.TotalDelivered != 1 || stats.FirstDelivery != lat {
			t.Fatalf("stats %+v, want one delivery at step %d", stats, lat)
		}
	})
}

// TestCancellationInEmptyGap cancels the run from an observer callback in
// the middle of a long idle gap — a stretch of steps where the event
// engine's queue holds nothing to do. Both engines must stop at the same
// subsequent cancel-slice boundary with identical stats.
func TestCancellationInEmptyGap(t *testing.T) {
	const cancelAt = 1500 // inside the first latency gap, past poll 1024
	run := func(t *testing.T, eng loop) Stats {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		obs := &cancellingObserver{cancelAt: cancelAt, cancel: cancel, inner: &recordingObserver{}}
		tr := &trace{}
		sim, err := NewSkeleton(mesh.MustRing(4)).New(func(n mesh.NodeID) Handler {
			return &chainHandler{tr: tr, node: n, hops: 20}
		}, Config{
			LinkConfig: LinkConfig{LinkLatency: 5000}, // every hop opens a ~5000-step empty gap
			MaxSteps:   1 << 20,
			Observer:   obs,
		})
		if err != nil {
			t.Fatalf("New(%s): %v", eng, err)
		}
		stats := eng.run(ctx, sim)
		if !stats.Interrupted || stats.Quiescent {
			t.Fatalf("stats %+v, want interrupted", stats)
		}
		if stats.Steps%CancelSliceSteps != 0 || stats.Steps <= cancelAt {
			t.Fatalf("stopped at step %d, want the first slice boundary after %d", stats.Steps, cancelAt)
		}
		if last := obs.inner.entries[len(obs.inner.entries)-1]; last.Step != stats.Steps-1 {
			t.Fatalf("last observer callback at step %d, want %d", last.Step, stats.Steps-1)
		}
		return stats
	}
	bothEngines(t, run)
}

// TestCancellationBeforeStart runs with an already-cancelled context: both
// engines observe it at the step-0 poll, before any work — including on a
// machine whose event queue is empty from the start.
func TestCancellationBeforeStart(t *testing.T) {
	for _, workload := range []string{"silent", "chain"} {
		run := func(t *testing.T, eng loop) Stats {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			tr := &trace{}
			c := Case{Workload: workload, Param: 5}
			sim, err := NewSkeleton(mesh.MustRing(4)).New(factory(c, tr), Config{})
			if err != nil {
				t.Fatalf("New(%s): %v", eng, err)
			}
			stats := eng.run(ctx, sim)
			if !stats.Interrupted || stats.Steps != 0 {
				t.Fatalf("%s: stats %+v, want interruption at step 0", workload, stats)
			}
			return stats
		}
		bothEngines(t, run)
	}
}

// TestObserverOnSilentMachine attaches an observer to a machine where no
// handler ever sends and nothing is injected: there are no subscribers for
// the observer to watch, yet it must still see the single quiescent step.
func TestObserverOnSilentMachine(t *testing.T) {
	run := func(t *testing.T, eng loop) Stats {
		obs := &recordingObserver{}
		tr := &trace{}
		sim, err := NewSkeleton(mesh.MustStar(6)).New(factory(Case{Workload: "silent"}, tr), Config{Observer: obs})
		if err != nil {
			t.Fatalf("New(%s): %v", eng, err)
		}
		stats := eng.run(context.Background(), sim)
		want := []obsEntry{{Step: 0, Queued: 0}}
		if !reflect.DeepEqual(obs.entries, want) {
			t.Fatalf("observer saw %+v, want exactly %+v", obs.entries, want)
		}
		if !stats.Quiescent || stats.Steps != 1 {
			t.Fatalf("stats %+v, want one quiescent step", stats)
		}
		return stats
	}
	bothEngines(t, run)
}
