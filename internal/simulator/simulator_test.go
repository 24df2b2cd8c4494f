package simulator

import (
	"testing"
	"testing/quick"

	"hypersolve/internal/mesh"
)

// floodHandler implements the paper's Listing 1: on first message, forward
// an empty message to every neighbour.
type floodHandler struct {
	visited bool
	seenAt  int64
}

func (h *floodHandler) Init(ctx *Context) {}

func (h *floodHandler) Receive(ctx *Context, src mesh.NodeID, payload Payload) {
	if h.visited {
		return
	}
	h.visited = true
	h.seenAt = ctx.Step()
	for _, n := range ctx.Neighbours() {
		if err := ctx.Send(n, nil); err != nil {
			panic(err)
		}
	}
}

func newFloodSim(t *testing.T, topo mesh.Topology, cfg Config) *Simulator {
	t.Helper()
	sim, err := NewSkeleton(topo).New(func(mesh.NodeID) Handler { return &floodHandler{} }, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func TestFloodVisitsAllNodes(t *testing.T) {
	topo := mesh.MustTorus(6, 6)
	sim := newFloodSim(t, topo, Config{})
	if err := sim.Inject(0, nil); err != nil {
		t.Fatal(err)
	}
	stats := sim.Run()
	if !stats.Quiescent {
		t.Fatal("simulation did not reach quiescence")
	}
	for n := 0; n < topo.Size(); n++ {
		h := sim.Handler(mesh.NodeID(n)).(*floodHandler)
		if !h.visited {
			t.Errorf("node %d never visited", n)
		}
	}
}

func TestFloodArrivalMatchesDistance(t *testing.T) {
	// With unit latency and one delivery per step, the flood wavefront
	// reaches each node no earlier than its hop distance from the source.
	topo := mesh.MustTorus(5, 5)
	sim := newFloodSim(t, topo, Config{})
	if err := sim.Inject(0, nil); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	for n := 0; n < topo.Size(); n++ {
		h := sim.Handler(mesh.NodeID(n)).(*floodHandler)
		d := int64(topo.Distance(0, mesh.NodeID(n)))
		if h.seenAt < d {
			t.Errorf("node %d visited at step %d, before hop distance %d", n, h.seenAt, d)
		}
	}
}

func TestComputationTimeBracketsActivity(t *testing.T) {
	topo := mesh.MustRing(10)
	sim := newFloodSim(t, topo, Config{})
	if err := sim.Inject(0, nil); err != nil {
		t.Fatal(err)
	}
	stats := sim.Run()
	if stats.ComputationTime() <= 0 {
		t.Fatalf("ComputationTime = %d, want > 0", stats.ComputationTime())
	}
	if stats.FirstDelivery != 0 {
		t.Errorf("FirstDelivery = %d, want 0", stats.FirstDelivery)
	}
	// Ring of 10: wavefront needs 5 hops in each direction.
	if stats.LastDelivery < 5 {
		t.Errorf("LastDelivery = %d, want >= 5", stats.LastDelivery)
	}
}

func TestNonAdjacentSendRejected(t *testing.T) {
	topo := mesh.MustGrid(3, 3)
	var sendErr error
	sim, err := NewSkeleton(topo).New(func(n mesh.NodeID) Handler {
		return handlerFunc(func(ctx *Context, src mesh.NodeID, p Payload) {
			// Node 0 (corner) tries to message node 8 (opposite corner).
			sendErr = ctx.Send(8, nil)
		})
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Inject(0, nil); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if sendErr == nil {
		t.Fatal("expected adjacency violation error, got nil")
	}
}

// handlerFunc adapts a function to the Handler interface.
type handlerFunc func(ctx *Context, src mesh.NodeID, p Payload)

func (f handlerFunc) Init(ctx *Context)                                {}
func (f handlerFunc) Receive(ctx *Context, src mesh.NodeID, p Payload) { f(ctx, src, p) }

func TestConfigValidation(t *testing.T) {
	topo := mesh.MustRing(4)
	factory := func(mesh.NodeID) Handler { return &floodHandler{} }
	sk := NewSkeleton(topo)
	if _, err := sk.New(nil, Config{}); err == nil {
		t.Error("nil factory: expected config error")
	}
	for i, link := range []LinkConfig{
		{LossRate: 0.5},                 // loss without reliability
		{LossRate: 1.5, Reliable: true}, // loss out of range
	} {
		if _, err := sk.New(factory, Config{LinkConfig: link}); err == nil {
			t.Errorf("case %d: expected config error", i)
		}
	}
}

func TestInjectValidation(t *testing.T) {
	sim := newFloodSim(t, mesh.MustRing(4), Config{})
	if err := sim.Inject(99, nil); err == nil {
		t.Error("expected out-of-range inject error")
	}
	if err := sim.Inject(0, nil); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if err := sim.Inject(0, nil); err == nil {
		t.Error("expected inject-after-run error")
	}
}

func TestMaxStepsAborts(t *testing.T) {
	// A two-node ping-pong never quiesces; MaxSteps must stop it.
	topo := mesh.MustFullyConnected(2)
	cfg := Config{MaxSteps: 50}
	sim, err := NewSkeleton(topo).New(func(n mesh.NodeID) Handler {
		return handlerFunc(func(ctx *Context, src mesh.NodeID, p Payload) {
			other := mesh.NodeID(1 - int(ctx.Node()))
			_ = ctx.Send(other, nil)
		})
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Inject(0, nil); err != nil {
		t.Fatal(err)
	}
	stats := sim.Run()
	if stats.Quiescent {
		t.Error("ping-pong reported quiescent")
	}
	if stats.Steps != 50 {
		t.Errorf("Steps = %d, want 50", stats.Steps)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Stats {
		sim := newFloodSim(t, mesh.MustTorus(8, 8), Config{Seed: 42, RecordSeries: true})
		if err := sim.Inject(5, nil); err != nil {
			t.Fatal(err)
		}
		return sim.Run()
	}
	a, b := run(), run()
	if a.Steps != b.Steps || a.TotalSent != b.TotalSent || a.TotalDelivered != b.TotalDelivered {
		t.Fatalf("non-deterministic stats: %+v vs %+v", a, b)
	}
	if len(a.QueuedSeries) != len(b.QueuedSeries) {
		t.Fatalf("series lengths differ: %d vs %d", len(a.QueuedSeries), len(b.QueuedSeries))
	}
	for i := range a.QueuedSeries {
		if a.QueuedSeries[i] != b.QueuedSeries[i] {
			t.Fatalf("series diverge at step %d", i)
		}
	}
}

func TestLinkLatencyDelaysDelivery(t *testing.T) {
	for _, latency := range []int64{1, 3, 7} {
		topo := mesh.MustRing(12)
		sim := newFloodSim(t, topo, Config{LinkConfig: LinkConfig{LinkLatency: latency}})
		if err := sim.Inject(0, nil); err != nil {
			t.Fatal(err)
		}
		stats := sim.Run()
		// Wavefront: 6 hops; each hop costs >= latency steps.
		if min := 6 * latency; stats.LastDelivery < min {
			t.Errorf("latency %d: LastDelivery = %d, want >= %d", latency, stats.LastDelivery, min)
		}
	}
}

func TestPerLinkParallelIngest(t *testing.T) {
	// Under the LinkQueues model, a star hub with 16 leaves drains one
	// message from every leaf link in the same step — degree-proportional
	// ingest. (Under the default NodeQueues model the same traffic
	// serialises; see TestQueueModelsDiffer.)
	leaves := 16
	topo := mesh.MustStar(leaves + 1)
	var hubSteps []int64
	cfg := Config{LinkConfig: LinkConfig{QueueModel: LinkQueues}}
	sim, err := NewSkeleton(topo).New(func(n mesh.NodeID) Handler {
		return handlerFunc(func(ctx *Context, src mesh.NodeID, p Payload) {
			switch {
			case ctx.Node() == 0 && src != mesh.None:
				hubSteps = append(hubSteps, ctx.Step())
			case ctx.Node() != 0 && src == mesh.None:
				_ = ctx.Send(0, nil) // each leaf pings the hub once
			}
		})
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for leaf := 1; leaf <= leaves; leaf++ {
		if err := sim.Inject(mesh.NodeID(leaf), nil); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run()
	if len(hubSteps) != leaves {
		t.Fatalf("hub received %d messages, want %d", len(hubSteps), leaves)
	}
	for _, s := range hubSteps {
		if s != hubSteps[0] {
			t.Fatalf("hub deliveries spread over steps %v; want all in one step", hubSteps)
		}
	}
}

func TestDeliverPerStepLinkBandwidth(t *testing.T) {
	// One leaf bursts 8 messages onto a single link; per-link bandwidth 1
	// serialises them over 8 steps, bandwidth 8 drains them in one.
	burst := 8
	topo := mesh.MustStar(2)
	run := func(bw int) int64 {
		cfg := Config{LinkConfig: LinkConfig{DeliverPerStep: bw}}
		sim, err := NewSkeleton(topo).New(func(n mesh.NodeID) Handler {
			return handlerFunc(func(ctx *Context, src mesh.NodeID, p Payload) {
				if ctx.Node() == 1 && src == mesh.None {
					for i := 0; i < burst; i++ {
						_ = ctx.Send(0, i)
					}
				}
			})
		}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Inject(1, nil); err != nil {
			t.Fatal(err)
		}
		return sim.Run().Steps
	}
	slow, fast := run(1), run(8)
	if fast >= slow {
		t.Errorf("bandwidth 8 (%d steps) not faster than bandwidth 1 (%d steps)", fast, slow)
	}
	if slow < int64(burst) {
		t.Errorf("bandwidth 1 finished in %d steps; burst of %d should need at least that many", slow, burst)
	}
}

func TestQueueCapBackpressure(t *testing.T) {
	// A burst over one link with QueueCap 1 forces sender-side retries,
	// yet every message is eventually delivered.
	burst := 8
	topo := mesh.MustStar(2)
	var hubReceived int
	cfg := Config{LinkConfig: LinkConfig{QueueCap: 1}}
	sim, err := NewSkeleton(topo).New(func(n mesh.NodeID) Handler {
		return handlerFunc(func(ctx *Context, src mesh.NodeID, p Payload) {
			switch {
			case ctx.Node() == 0 && src != mesh.None:
				hubReceived++
			case ctx.Node() == 1 && src == mesh.None:
				for i := 0; i < burst; i++ {
					_ = ctx.Send(0, i)
				}
			}
		})
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Inject(1, nil); err != nil {
		t.Fatal(err)
	}
	stats := sim.Run()
	if !stats.Quiescent {
		t.Fatal("backpressured run did not quiesce")
	}
	if hubReceived != burst {
		t.Errorf("hub received %d messages, want %d", hubReceived, burst)
	}
	if stats.TotalBlocked == 0 {
		t.Error("expected backpressure events with QueueCap=1")
	}
}

func TestLossyLinksWithReliability(t *testing.T) {
	// Under 30% loss with the ack/retransmit protocol, flood still reaches
	// every node exactly once (duplicates suppressed).
	topo := mesh.MustTorus(5, 5)
	received := make([]int, topo.Size())
	cfg := Config{
		LinkConfig: LinkConfig{LossRate: 0.3, Reliable: true, RetransmitAfter: 4},
		Seed:       7,
	}
	sim, err := NewSkeleton(topo).New(func(n mesh.NodeID) Handler {
		return handlerFunc(func(ctx *Context, src mesh.NodeID, p Payload) {
			received[ctx.Node()]++
			if received[ctx.Node()] == 1 {
				for _, nb := range ctx.Neighbours() {
					_ = ctx.Send(nb, nil)
				}
			}
		})
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Inject(0, nil); err != nil {
		t.Fatal(err)
	}
	stats := sim.Run()
	if !stats.Quiescent {
		t.Fatal("lossy run did not quiesce")
	}
	if stats.TotalDropped == 0 {
		t.Error("expected drops at 30% loss")
	}
	if stats.TotalRetransmits == 0 {
		t.Error("expected retransmissions at 30% loss")
	}
	for n, c := range received {
		if c == 0 {
			t.Errorf("node %d never received despite reliability", n)
		}
	}
	// Exactly-once per (src,dst) sequence: each node receives one message
	// from each neighbour plus (node 0) the injection.
	for n, c := range received {
		want := topo.Degree(mesh.NodeID(n))
		if n == 0 {
			want++
		}
		if c != want {
			t.Errorf("node %d delivered %d messages, want %d (exactly-once violated)", n, c, want)
		}
	}
}

func TestReliabilityExactlyOnceProperty(t *testing.T) {
	// Property: for any seed and loss rate in [0, 0.5), every node of a
	// small torus receives exactly degree (+1 for the root) messages.
	f := func(seed int64, lossPct uint8) bool {
		loss := float64(lossPct%50) / 100
		topo := mesh.MustTorus(3, 3)
		received := make([]int, topo.Size())
		cfg := Config{
			LinkConfig: LinkConfig{LossRate: loss, Reliable: true, RetransmitAfter: 3},
			Seed:       seed,
		}
		sim, err := NewSkeleton(topo).New(func(n mesh.NodeID) Handler {
			return handlerFunc(func(ctx *Context, src mesh.NodeID, p Payload) {
				received[ctx.Node()]++
				if received[ctx.Node()] == 1 {
					for _, nb := range ctx.Neighbours() {
						_ = ctx.Send(nb, nil)
					}
				}
			})
		}, cfg)
		if err != nil {
			return false
		}
		if err := sim.Inject(0, nil); err != nil {
			return false
		}
		if stats := sim.Run(); !stats.Quiescent {
			return false
		}
		for n, c := range received {
			want := topo.Degree(mesh.NodeID(n))
			if n == 0 {
				want++
			}
			if c != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestQueuedSeriesRecorded(t *testing.T) {
	sim := newFloodSim(t, mesh.MustTorus(4, 4), Config{RecordSeries: true})
	if err := sim.Inject(0, nil); err != nil {
		t.Fatal(err)
	}
	stats := sim.Run()
	if int64(len(stats.QueuedSeries)) != stats.Steps {
		t.Fatalf("series length %d != steps %d", len(stats.QueuedSeries), stats.Steps)
	}
	if stats.QueuedSeries[len(stats.QueuedSeries)-1] != 0 {
		t.Error("final series entry should be zero at quiescence")
	}
	peak := 0
	for _, q := range stats.QueuedSeries {
		if q > peak {
			peak = q
		}
	}
	if peak == 0 {
		t.Error("series never recorded any queued messages")
	}
}

type stepCounter struct{ steps []int64 }

func (o *stepCounter) AfterStep(step int64, queued int) { o.steps = append(o.steps, step) }

func TestObserverCalledEveryStep(t *testing.T) {
	obs := &stepCounter{}
	sim := newFloodSim(t, mesh.MustRing(6), Config{Observer: obs})
	if err := sim.Inject(0, nil); err != nil {
		t.Fatal(err)
	}
	stats := sim.Run()
	if int64(len(obs.steps)) != stats.Steps {
		t.Fatalf("observer saw %d steps, want %d", len(obs.steps), stats.Steps)
	}
	for i, s := range obs.steps {
		if s != int64(i) {
			t.Fatalf("observer step %d reported as %d", i, s)
		}
	}
}

func TestEmptyRunQuiescesImmediately(t *testing.T) {
	sim := newFloodSim(t, mesh.MustRing(5), Config{})
	stats := sim.Run()
	if !stats.Quiescent {
		t.Error("empty run should quiesce")
	}
	if stats.ComputationTime() != 0 {
		t.Errorf("ComputationTime = %d, want 0", stats.ComputationTime())
	}
}

func TestDedupHighWater(t *testing.T) {
	d := &dedup{sparse: make(map[uint64]bool)}
	for _, seq := range []uint64{0, 2, 1, 1, 0, 3} {
		d.mark(seq)
	}
	if d.contiguous != 4 {
		t.Errorf("contiguous = %d, want 4", d.contiguous)
	}
	if len(d.sparse) != 0 {
		t.Errorf("sparse not drained: %v", d.sparse)
	}
	for seq := uint64(0); seq < 4; seq++ {
		if !d.seen(seq) {
			t.Errorf("seq %d should be seen", seq)
		}
	}
	if d.seen(4) {
		t.Error("seq 4 should not be seen")
	}
}

func TestQueueModelsDiffer(t *testing.T) {
	// The same burst traffic serialises under NodeQueues (one delivery per
	// node per step) and parallelises under LinkQueues (one per link).
	leaves := 12
	topo := mesh.MustStar(leaves + 1)
	run := func(model QueueModel) int64 {
		cfg := Config{LinkConfig: LinkConfig{QueueModel: model}}
		sim, err := NewSkeleton(topo).New(func(n mesh.NodeID) Handler {
			return handlerFunc(func(ctx *Context, src mesh.NodeID, p Payload) {
				if ctx.Node() != 0 && src == mesh.None {
					_ = ctx.Send(0, nil)
				}
			})
		}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for leaf := 1; leaf <= leaves; leaf++ {
			if err := sim.Inject(mesh.NodeID(leaf), nil); err != nil {
				t.Fatal(err)
			}
		}
		stats := sim.Run()
		if !stats.Quiescent {
			t.Fatal("run did not quiesce")
		}
		return stats.Steps
	}
	node, link := run(NodeQueues), run(LinkQueues)
	if node <= link {
		t.Errorf("NodeQueues (%d steps) should be slower than LinkQueues (%d steps) for hub bursts", node, link)
	}
	if min := int64(leaves); node < min {
		t.Errorf("NodeQueues steps = %d; hub must need >= %d steps for %d serialised messages", node, min, leaves)
	}
}

func TestQueueModelString(t *testing.T) {
	if NodeQueues.String() != "node-queues" || LinkQueues.String() != "link-queues" {
		t.Error("queue model names wrong")
	}
}

func TestQueueModelsAgreeOnVisitedSet(t *testing.T) {
	// The two queue disciplines change timing, never reachability: a flood
	// visits exactly the same nodes under both.
	topo := mesh.MustTorus(7, 7)
	run := func(model QueueModel) []bool {
		sim := newFloodSim(t, topo, Config{LinkConfig: LinkConfig{QueueModel: model}})
		if err := sim.Inject(3, nil); err != nil {
			t.Fatal(err)
		}
		if stats := sim.Run(); !stats.Quiescent {
			t.Fatal("no quiescence")
		}
		out := make([]bool, topo.Size())
		for n := range out {
			out[n] = sim.Handler(mesh.NodeID(n)).(*floodHandler).visited
		}
		return out
	}
	node, link := run(NodeQueues), run(LinkQueues)
	for n := range node {
		if node[n] != link[n] {
			t.Fatalf("node %d visited disagreement: node-queues %v, link-queues %v", n, node[n], link[n])
		}
		if !node[n] {
			t.Fatalf("node %d never visited", n)
		}
	}
}

func TestLinkQueuesDeterminism(t *testing.T) {
	run := func() Stats {
		sim := newFloodSim(t, mesh.MustTorus(6, 6), Config{LinkConfig: LinkConfig{QueueModel: LinkQueues}, RecordSeries: true})
		if err := sim.Inject(0, nil); err != nil {
			t.Fatal(err)
		}
		return sim.Run()
	}
	a, b := run(), run()
	if a.Steps != b.Steps || a.TotalDelivered != b.TotalDelivered {
		t.Fatalf("link-queue runs diverge: %+v vs %+v", a, b)
	}
	for i := range a.QueuedSeries {
		if a.QueuedSeries[i] != b.QueuedSeries[i] {
			t.Fatalf("series diverge at %d", i)
		}
	}
}

func TestLossyLinkQueuesReliability(t *testing.T) {
	// The reliability protocol must also work under the per-link model.
	topo := mesh.MustTorus(4, 4)
	received := make([]int, topo.Size())
	cfg := Config{
		LinkConfig: LinkConfig{QueueModel: LinkQueues, LossRate: 0.25, Reliable: true, RetransmitAfter: 4},
		Seed:       3,
	}
	sim, err := NewSkeleton(topo).New(func(n mesh.NodeID) Handler {
		return handlerFunc(func(ctx *Context, src mesh.NodeID, p Payload) {
			received[ctx.Node()]++
			if received[ctx.Node()] == 1 {
				for _, nb := range ctx.Neighbours() {
					_ = ctx.Send(nb, nil)
				}
			}
		})
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Inject(0, nil); err != nil {
		t.Fatal(err)
	}
	if stats := sim.Run(); !stats.Quiescent {
		t.Fatal("lossy link-queue run did not quiesce")
	}
	for n, c := range received {
		want := topo.Degree(mesh.NodeID(n))
		if n == 0 {
			want++
		}
		if c != want {
			t.Errorf("node %d received %d, want %d", n, c, want)
		}
	}
}
