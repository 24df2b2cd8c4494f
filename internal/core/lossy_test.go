package core

import (
	"testing"

	"hypersolve/internal/apps"
	"hypersolve/internal/mapping"
	"hypersolve/internal/mesh"
	"hypersolve/internal/recursion"
	"hypersolve/internal/simulator"
)

// pickTask resolves every choice on its first branch only: pick(n) = n, the
// second branch's reply is either rejected (it came first) or ignored (it
// came late).
func pickTask(f *recursion.Frame, arg recursion.Value) recursion.Value {
	n := arg.(int)
	if n <= 0 {
		return 0
	}
	v, ok := f.Choose(func(v recursion.Value) bool { return v.(int) == n-1 }, n-1, n-2)
	if !ok {
		return -1
	}
	return v.(int) + 1
}

// TestLossyReliableLinksDeliverEveryEnvelopeOnce drives layers 2 and 3's
// recycled envelopes through the one path that hands the same pointer to
// layer 1 twice: a reliable link that retransmits what a 20 % loss rate
// dropped. Receivers recycle an envelope the moment they have unpacked it
// and poison it as they do (a handler that were shown a recycled envelope
// would panic on its kind or slot), so a clean run with the oracle's value
// and the Stats pinned before envelopes were pooled (commit fc4613b) shows
// every duplicate was dropped below the handlers.
func TestLossyReliableLinksDeliverEveryEnvelopeOnce(t *testing.T) {
	type counts struct{ sent, delivered, dropped, retransmits, steps int64 }
	cases := []struct {
		name  string
		task  recursion.Task
		arg   int
		want  int
		model simulator.QueueModel
		pin   counts
	}{
		{"fib12/link-queues", apps.FibTask(), 12, 144, simulator.LinkQueues, counts{929, 929, 533, 566, 151}},
		{"fib12/node-queues", apps.FibTask(), 12, 144, simulator.NodeQueues, counts{929, 929, 7977, 21375, 9087}},
		{"pick10/link-queues", pickTask, 10, 10, simulator.LinkQueues, counts{573, 573, 343, 360, 124}},
		{"pick10/node-queues", pickTask, 10, 10, simulator.NodeQueues, counts{573, 573, 1621, 3964, 2067}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := RunOnce(Config{
				Topology: mesh.MustTorus(6, 6),
				Mapper:   mapping.NewRoundRobin(),
				Task:     tc.task,
				Seed:     1,
				Link:     simulator.LinkConfig{QueueModel: tc.model, LinkLatency: 3, LossRate: 0.2, Reliable: true},
			}, tc.arg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.OK || res.Value.(int) != tc.want {
				t.Fatalf("root = %v (ok=%v), want %d", res.Value, res.OK, tc.want)
			}
			s := res.Stats
			got := counts{s.TotalSent, s.TotalDelivered, s.TotalDropped, s.TotalRetransmits, s.Steps}
			if got != tc.pin {
				t.Errorf("stats {sent, delivered, dropped, retransmits, steps} = %v, pinned %v", got, tc.pin)
			}
			if s.TotalRetransmits == 0 {
				t.Error("no retransmits: the run never sent an envelope twice")
			}
		})
	}
}
