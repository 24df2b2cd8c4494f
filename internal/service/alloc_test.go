package service

import (
	"fmt"
	"testing"

	"hypersolve/internal/mesh"
	"hypersolve/internal/simulator"
	"hypersolve/internal/telemetry"
	"hypersolve/internal/tracelog"
)

// floodHandler forwards the first message it sees to every neighbour: the
// raw layer-1 step loop with no application work.
type floodHandler struct{ seen bool }

func (h *floodHandler) Init(*simulator.Context) {}

func (h *floodHandler) Receive(ctx *simulator.Context, _ mesh.NodeID, _ simulator.Payload) {
	if h.seen {
		return
	}
	h.seen = true
	for _, nb := range ctx.Neighbours() {
		if err := ctx.Send(nb, nil); err != nil {
			panic(err)
		}
	}
}

// floodAllocsPerRun measures one torus:32x32 flood's allocations under the
// given observer (nil for the bare loop).
//
// It reads testing.AllocsPerRun — single goroutine, GOMAXPROCS(1),
// integer-floored average over a fixed run count — and not a benchmark's
// -benchmem column, because allocs/op there carries ±1 op of ambient noise
// (framework and runtime allocations divided by an elapsed-time-dependent
// N), which is enough to tip an exact comparison. Here any sub-run cost —
// including the handful of allocations the telemetry and tracing hooks make
// on the wall-clock publish cadence — floors away, while a real hot-path
// regression (one allocation per step is dozens per run) is far above the
// floor.
func floodAllocsPerRun(t *testing.T, obs simulator.Observer) int64 {
	t.Helper()
	topo := mesh.MustTorus(32, 32)
	return int64(testing.AllocsPerRun(100, func() {
		sim, err := simulator.NewSkeleton(topo).New(
			func(mesh.NodeID) simulator.Handler { return &floodHandler{} },
			simulator.Config{Observer: obs})
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Inject(0, nil); err != nil {
			t.Fatal(err)
		}
		if !sim.Run().Quiescent {
			t.Fatal("flood did not quiesce")
		}
	}))
}

// TestObserverAddsNoAllocations is the zero-added-allocations contract of
// the per-step hot path: every observer configuration a serviced job runs
// under — subscriber-less progress, the telemetry step counter, the trace
// annotation hook — allocates no more per flood than the bare step loop. An
// allocation per step in progressObserver.AfterStep fails every row.
func TestObserverAddsNoAllocations(t *testing.T) {
	counted := func() *ProgressBroker {
		b := NewProgressBroker()
		b.steps = telemetry.NewRegistry().Counter("test_sim_steps_total", "test-only step counter")
		return b
	}
	tr := tracelog.NewTrace(tracelog.TraceContext{})
	span := tr.StartSpan("run")
	defer tr.EndSpan(span)
	annotate := func(step int64, queued int) {
		tr.Annotate(span, fmt.Sprintf("step %d, %d queued", step, queued))
	}

	bare := floodAllocsPerRun(t, nil)
	for _, tc := range []struct {
		name string
		obs  simulator.Observer
	}{
		{"observed", NewProgressBroker().attemptObserver("", nil, nil, nil)},
		{"step counter", counted().attemptObserver("", nil, nil, nil)},
		{"trace annotation", counted().attemptObserver("", nil, nil, annotate)},
	} {
		if got := floodAllocsPerRun(t, tc.obs); got > bare {
			t.Errorf("%s: %d allocs/run, bare loop %d: the observer added allocations to the hot path",
				tc.name, got, bare)
		}
	}
}
