package simulator

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestDifferentialMatrix is the main equivalence proof: 200 seeded random
// configurations across every dimension of the machine (topology family,
// workload shape, queue model, bandwidth, latency, capacity backpressure,
// loss + reliability, horizon, seed), each built twice and required to be
// bit-identical across engines — Stats, delivery trace and observer
// sequence. The matrix is fully deterministic: case i is drawn from seed
// 7919*i+3, so a failure reproduces by number.
func TestDifferentialMatrix(t *testing.T) {
	for i := 0; i < 200; i++ {
		c := randomCase(rand.New(rand.NewSource(int64(i)*7919 + 3)))
		t.Run(c.String(), func(t *testing.T) {
			t.Parallel()
			assertIdentical(t, c)
		})
	}
}

// TestQueuedSeriesGapFill pins the event engine's per-step series contract
// on a bursty workload: even though the engine skips idle steps, the
// recorded QueuedSeries must contain exactly one entry per simulated step —
// idle gaps filled with the unchanged in-flight count — matching the sweep
// in both length and values.
func TestQueuedSeriesGapFill(t *testing.T) {
	for _, c := range []Case{
		// Bursty: periodic bursts with idle valleys between them.
		{Topo: "ring:8", Workload: "burst", Param: 4, LinkLatency: 9,
			DeliverPerStep: 1, MaxSteps: 5000, RecordSeries: true},
		// Sparse chain: one token in flight, gaps of ~latency steps.
		{Topo: "torus:4x4", Workload: "chain", Param: 12, LinkLatency: 37,
			DeliverPerStep: 1, MaxSteps: 5000, RecordSeries: true},
		// Truncated: non-quiescent at the horizon, gap runs into MaxSteps.
		{Topo: "ring:5", Workload: "chain", Param: 50, LinkLatency: 400,
			DeliverPerStep: 1, MaxSteps: 1000, RecordSeries: true},
	} {
		sweep := runEngine(t, c, sweepLoop)
		event := runEngine(t, c, eventLoop)
		if int64(len(event.stats.QueuedSeries)) != event.stats.Steps {
			t.Errorf("%v: event engine series has %d entries, want one per step (%d)",
				c, len(event.stats.QueuedSeries), event.stats.Steps)
		}
		if !reflect.DeepEqual(sweep.stats.QueuedSeries, event.stats.QueuedSeries) {
			t.Errorf("%v: QueuedSeries diverges (sweep %d entries, event %d entries)",
				c, len(sweep.stats.QueuedSeries), len(event.stats.QueuedSeries))
		}
		if !reflect.DeepEqual(sweep.stats, event.stats) {
			t.Errorf("%v: Stats diverge:\n sweep: %+v\n event: %+v", c, sweep.stats, event.stats)
		}
	}
}
