package simulator

// The difftest_*_test.go files differentially test the event engine against
// the reference sweep (runSweep).
//
// The event engine claims bit-identity with the step-synchronous sweep:
// identical Stats, identical per-slot delivery traces (step, slot, source,
// payload, in order), and identical observer callback sequences, on every
// workload. These files are the proof: a seeded ~200-case randomized matrix
// over (topology, workload kind, queue model, loss/latency, queue capacity,
// MaxSteps, seed), a native fuzz target decoding arbitrary bytes into
// configs, and directed edge-case tests for the corners the sweep loop
// never exercised (zero-slot machines, horizons landing exactly on an
// arrival, cancellation inside a skipped idle gap).
//
// The harness lives in package simulator because the sweep is not a
// selectable engine: it is reachable only through the unexported runSweep.
// All tests here construct every run twice from scratch — fresh handlers,
// fresh trace — so the two loops cannot share state, and run under -race in
// CI.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"hypersolve/internal/mesh"
)

// loop names which of the package's two step loops executes a run.
type loop string

const (
	sweepLoop loop = "sweep" // runSweep, the reference
	eventLoop loop = "event" // RunContext, what production runs
)

func (l loop) run(ctx context.Context, sim *Simulator) Stats {
	if l == sweepLoop {
		return sim.runSweep(ctx)
	}
	return sim.RunContext(ctx)
}

// Case is one differential configuration: everything needed to build the
// same machine twice, once per loop.
type Case struct {
	Topo     string // mesh.Parse spec
	Workload string // flood | chain | burst | demand | silent
	Param    int    // workload intensity: flood TTL, chain hops, burst count

	QueueModel      QueueModel
	DeliverPerStep  int
	LinkLatency     int64
	QueueCap        int
	LossRate        float64
	RetransmitAfter int64
	MaxSteps        int64
	Seed            int64

	Injections   int  // external injections spread across the nodes
	RecordSeries bool // request the per-step QueuedSeries
	Observe      bool // attach a recording observer
}

func (c Case) String() string {
	return fmt.Sprintf("%s/%s:%d/%s/dps%d/lat%d/cap%d/loss%.2f/max%d/seed%d",
		c.Topo, c.Workload, c.Param, c.QueueModel, c.DeliverPerStep,
		c.LinkLatency, c.QueueCap, c.LossRate, c.MaxSteps, c.Seed)
}

// traceEntry records one handler delivery; the sequence of entries is the
// machine's observable delivery order.
type traceEntry struct {
	Step int64
	Node mesh.NodeID
	Src  mesh.NodeID
	Val  int
}

type trace struct{ entries []traceEntry }

func (t *trace) record(step int64, node, src mesh.NodeID, val int) {
	t.entries = append(t.entries, traceEntry{Step: step, Node: node, Src: src, Val: val})
}

// obsEntry records one Observer.AfterStep callback.
type obsEntry struct {
	Step   int64
	Queued int
}

type recordingObserver struct{ entries []obsEntry }

func (o *recordingObserver) AfterStep(step int64, queued int) {
	o.entries = append(o.entries, obsEntry{Step: step, Queued: queued})
}

// --- Workload handlers -------------------------------------------------
//
// Every handler is a pure function of its deliveries and ticks, so two
// machines built from the same Case evolve identically if and only if the
// engines deliver identically — which is exactly what the tests assert.

// ttlFloodHandler broadcasts a TTL to all neighbours; receivers re-broadcast
// TTL-1 while positive. Dense traffic, the paper's flood shape.
type ttlFloodHandler struct {
	tr   *trace
	node mesh.NodeID
	ttl  int
}

func (h *ttlFloodHandler) Init(ctx *Context) {
	if h.node == 0 {
		for _, nb := range ctx.Neighbours() {
			ctx.Send(nb, h.ttl)
		}
	}
}

func (h *ttlFloodHandler) Receive(ctx *Context, src mesh.NodeID, p Payload) {
	v := p.(int)
	h.tr.record(ctx.Step(), h.node, src, v)
	if v > 0 {
		for _, nb := range ctx.Neighbours() {
			ctx.Send(nb, v-1)
		}
	}
}

// chainHandler passes a single token hop to hop: maximally sparse traffic,
// the event engine's best case (long idle gaps between arrivals).
type chainHandler struct {
	tr   *trace
	node mesh.NodeID
	hops int
}

func (h *chainHandler) Init(ctx *Context) {
	if h.node == 0 {
		nbs := ctx.Neighbours()
		ctx.Send(nbs[0], h.hops)
	}
}

func (h *chainHandler) Receive(ctx *Context, src mesh.NodeID, p Payload) {
	v := p.(int)
	h.tr.record(ctx.Step(), h.node, src, v)
	if v > 0 {
		nbs := ctx.Neighbours()
		ctx.Send(nbs[v%len(nbs)], v-1)
	}
}

// burstHandler is Ticker-only: node 0 emits a burst of messages every
// period steps for a fixed number of bursts, while receivers echo a short
// reply. Bursty traffic with idle valleys — and, because Ticker-only
// handlers are ticked on every step, it also pins the engines' agreement on
// per-step tick scheduling. The machine may quiesce inside a valley (ticks
// do not block quiescence); both engines must agree on when.
type burstHandler struct {
	tr     *trace
	node   mesh.NodeID
	period int
	bursts int
	ticks  int
	fired  int
}

func (h *burstHandler) Init(ctx *Context) {
	if h.node == 0 {
		ctx.Send(ctx.Neighbours()[0], 1) // kick: keep step 0 non-quiescent
	}
}

func (h *burstHandler) Receive(ctx *Context, src mesh.NodeID, p Payload) {
	v := p.(int)
	h.tr.record(ctx.Step(), h.node, src, v)
	if v > 0 {
		ctx.Send(src, v-1) // short echo back
	}
}

func (h *burstHandler) Tick(ctx *Context) {
	h.ticks++
	if h.node != 0 || h.fired >= h.bursts || h.ticks%h.period != 0 {
		return
	}
	h.fired++
	for i, nb := range ctx.Neighbours() {
		ctx.Send(nb, 1+i%2)
	}
}

// demandHandler implements the Ticker+Pending contract the scheduler stack
// relies on: Receive only buffers, Tick drains a bounded budget, and
// PendingWork reports the backlog. Tick is a no-op when PendingWork is
// false — the promise that lets the event engine skip idle ticks.
type demandHandler struct {
	tr      *trace
	node    mesh.NodeID
	budget  int
	backlog []int
}

func (h *demandHandler) Init(ctx *Context) {
	if h.node == 0 {
		h.backlog = append(h.backlog, 3, 7) // Init-time pending work
	}
}

func (h *demandHandler) Receive(ctx *Context, src mesh.NodeID, p Payload) {
	v := p.(int)
	h.tr.record(ctx.Step(), h.node, src, v)
	h.backlog = append(h.backlog, v)
}

func (h *demandHandler) Tick(ctx *Context) {
	for i := 0; i < h.budget && len(h.backlog) > 0; i++ {
		v := h.backlog[0]
		h.backlog = h.backlog[1:]
		if v > 0 {
			nbs := ctx.Neighbours()
			ctx.Send(nbs[v%len(nbs)], v-1)
		}
	}
}

func (h *demandHandler) PendingWork() bool { return len(h.backlog) > 0 }

// silentHandler never sends: the machine quiesces on step 0 unless
// injections keep it alive.
type silentHandler struct {
	tr   *trace
	node mesh.NodeID
}

func (h *silentHandler) Init(*Context) {}

func (h *silentHandler) Receive(ctx *Context, src mesh.NodeID, p Payload) {
	v, _ := p.(int)
	h.tr.record(ctx.Step(), h.node, src, v)
}

func factory(c Case, tr *trace) HandlerFactory {
	return func(node mesh.NodeID) Handler {
		switch c.Workload {
		case "flood":
			return &ttlFloodHandler{tr: tr, node: node, ttl: c.Param}
		case "chain":
			return &chainHandler{tr: tr, node: node, hops: c.Param}
		case "burst":
			return &burstHandler{tr: tr, node: node, period: 3 + c.Param%7, bursts: 1 + c.Param%5}
		case "demand":
			return &demandHandler{tr: tr, node: node, budget: 1 + c.Param%3}
		default:
			return &silentHandler{tr: tr, node: node}
		}
	}
}

// runResult is everything observable from one run.
type runResult struct {
	stats Stats
	trace []traceEntry
	obs   []obsEntry
}

// runEngine builds the Case's machine from scratch for one engine and runs
// it to completion.
func runEngine(t testing.TB, c Case, eng loop) runResult {
	t.Helper()
	topo, err := mesh.Parse(c.Topo)
	if err != nil {
		t.Fatalf("%v: topology: %v", c, err)
	}
	tr := &trace{}
	cfg := Config{
		LinkConfig: LinkConfig{
			QueueModel:      c.QueueModel,
			LinkLatency:     c.LinkLatency,
			DeliverPerStep:  c.DeliverPerStep,
			QueueCap:        c.QueueCap,
			LossRate:        c.LossRate,
			Reliable:        c.LossRate > 0,
			RetransmitAfter: c.RetransmitAfter,
		},
		MaxSteps:     c.MaxSteps,
		Seed:         c.Seed,
		RecordSeries: c.RecordSeries,
	}
	var obs *recordingObserver
	if c.Observe {
		obs = &recordingObserver{}
		cfg.Observer = obs
	}
	sim, err := NewSkeleton(topo).New(factory(c, tr), cfg)
	if err != nil {
		t.Fatalf("%v: New(%s): %v", c, eng, err)
	}
	for i := 0; i < c.Injections; i++ {
		dst := mesh.NodeID(i % topo.Size())
		if err := sim.Inject(dst, 1+i%4); err != nil {
			t.Fatalf("%v: Inject: %v", c, err)
		}
	}
	res := runResult{stats: eng.run(context.Background(), sim), trace: tr.entries}
	if obs != nil {
		res.obs = obs.entries
	}
	return res
}

// assertIdentical runs the Case under both engines and requires bit-equal
// Stats, delivery traces and observer sequences.
func assertIdentical(t testing.TB, c Case) {
	t.Helper()
	sweep := runEngine(t, c, sweepLoop)
	event := runEngine(t, c, eventLoop)
	if !reflect.DeepEqual(sweep.stats, event.stats) {
		t.Fatalf("%v: Stats diverge:\n sweep: %+v\n event: %+v", c, sweep.stats, event.stats)
	}
	if !reflect.DeepEqual(sweep.trace, event.trace) {
		t.Fatalf("%v: delivery traces diverge: sweep %d entries, event %d entries\nfirst divergence: %s",
			c, len(sweep.trace), len(event.trace), firstTraceDiff(sweep.trace, event.trace))
	}
	if !reflect.DeepEqual(sweep.obs, event.obs) {
		t.Fatalf("%v: observer sequences diverge: sweep %d callbacks, event %d callbacks",
			c, len(sweep.obs), len(event.obs))
	}
}

func firstTraceDiff(a, b []traceEntry) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("entry %d: sweep %+v, event %+v", i, a[i], b[i])
		}
	}
	return fmt.Sprintf("one trace is a prefix of the other (lengths %d vs %d)", len(a), len(b))
}

// randomCase draws one configuration. Sizes are bounded so the sweep side
// of every case stays cheap; intensity is independent of all other draws so
// a fixed seed always produces the same matrix.
func randomCase(rng *rand.Rand) Case {
	topos := []string{
		"ring:3", "ring:5", "ring:8", "ring:16",
		"full:4", "full:6", "full:10",
		"star:5", "star:9",
		"hypercube:2", "hypercube:3", "hypercube:4",
		"torus:3x3", "torus:4x4", "grid:4x4", "grid:3x5",
	}
	workloads := []string{"flood", "chain", "burst", "demand", "silent"}
	latencies := []int64{1, 1, 2, 3, 7, 25, 100}
	maxSteps := []int64{0, 0, 0, 1, 5, 64, 1000, 20000} // 0 = default horizon
	c := Case{
		Topo:            topos[rng.Intn(len(topos))],
		Workload:        workloads[rng.Intn(len(workloads))],
		Param:           1 + rng.Intn(4),
		DeliverPerStep:  1 + rng.Intn(3),
		LinkLatency:     latencies[rng.Intn(len(latencies))],
		MaxSteps:        maxSteps[rng.Intn(len(maxSteps))],
		Seed:            rng.Int63n(1 << 30),
		Injections:      rng.Intn(6),
		RecordSeries:    rng.Intn(4) != 0,
		Observe:         rng.Intn(2) == 0,
		RetransmitAfter: int64(1 + rng.Intn(12)),
	}
	if rng.Intn(2) == 0 {
		c.QueueModel = LinkQueues
	}
	if rng.Intn(3) == 0 {
		c.QueueCap = 1 + rng.Intn(3)
	}
	if rng.Intn(3) == 0 {
		c.LossRate = [...]float64{0.05, 0.2, 0.5}[rng.Intn(3)]
		// A timeout shorter than the ack round trip retransmits every
		// in-flight message on every scan; combined with capacity
		// backpressure that degenerates into quadratic outbox growth (in
		// both engines, identically — but far too slow for a 200-case
		// matrix). Real protocols wait at least the round trip; so do we.
		c.RetransmitAfter = 2*c.LinkLatency + 1 + rng.Int63n(8)
		if c.MaxSteps == 0 || c.MaxSteps > 2000 {
			c.MaxSteps = 2000
		}
		if c.LinkLatency > 25 {
			c.LinkLatency = 25
		}
	}
	if c.MaxSteps == 0 {
		// The default horizon is 4M steps: sweeping it is too slow for a
		// 200-case matrix, so cap non-quiescent runs at a bound that still
		// exercises idle-gap skipping across many cancel slices.
		c.MaxSteps = 20000
	}
	if c.Workload == "flood" && c.Param > 3 {
		c.Param = 3 // bound the fan-out explosion on high-degree meshes
	}
	return c
}

// runCancelled runs the Case under one engine with an observer that cancels
// the context once step cancelAt is reached; used by the edge-case tests.
type cancellingObserver struct {
	cancelAt int64
	cancel   context.CancelFunc
	inner    *recordingObserver
}

func (o *cancellingObserver) AfterStep(step int64, queued int) {
	o.inner.AfterStep(step, queued)
	if step == o.cancelAt {
		o.cancel()
	}
}
