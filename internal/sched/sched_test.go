package sched

import (
	"context"
	"slices"
	"testing"

	"hypersolve/internal/mesh"
	"hypersolve/internal/simulator"
)

// echoProc records what it receives and optionally forwards once to a fixed
// destination.
type echoProc struct {
	self     PID
	received []any
	sources  []PID
	forward  PID
	fired    bool
}

func (e *echoProc) Init(ctx *Context) { e.self = ctx.Self() }

func (e *echoProc) Receive(ctx *Context, src PID, payload any) {
	e.received = append(e.received, payload)
	e.sources = append(e.sources, src)
	if e.forward >= 0 && !e.fired {
		e.fired = true
		if err := ctx.Send(e.forward, payload); err != nil {
			panic(err)
		}
	}
}

func newEchoCluster(t *testing.T, topo mesh.Topology, procs int, wire func(PID) PID) *Cluster {
	t.Helper()
	c, err := NewSkeleton(topo, procs).New(func(p PID) Process {
		fw := PID(-1)
		if wire != nil {
			fw = wire(p)
		}
		return &echoProc{forward: fw}
	}, simulator.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPIDMapping(t *testing.T) {
	c := newEchoCluster(t, mesh.MustTorus(4, 4), 3, nil)
	if got := c.PIDOf(2, 1); got != 7 {
		t.Errorf("PIDOf(2,1) = %d, want 7", got)
	}
	if got := c.Virtual().Size(); got != 48 {
		t.Errorf("virtual size = %d, want 48", got)
	}
}

func TestVirtualTopologyValidates(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		c := newEchoCluster(t, mesh.MustTorus(3, 3), procs, nil)
		if err := mesh.Validate(c.Virtual()); err != nil {
			t.Errorf("procs=%d: %v", procs, err)
		}
	}
}

func TestVirtualNeighboursStructure(t *testing.T) {
	// 3x3 torus with 2 procs: each PID has 1 sibling + 4 neighbours * 2
	// slots = 9 virtual neighbours.
	c := newEchoCluster(t, mesh.MustTorus(3, 3), 2, nil)
	v := c.Virtual()
	for pid := 0; pid < v.Size(); pid++ {
		if d := v.Degree(mesh.NodeID(pid)); d != 9 {
			t.Errorf("pid %d virtual degree = %d, want 9", pid, d)
		}
	}
}

func TestVirtualTopologySingleProcMatchesPhysical(t *testing.T) {
	phys := mesh.MustTorus(4, 4)
	c := newEchoCluster(t, phys, 1, nil)
	v := c.Virtual()
	if v.Size() != phys.Size() {
		t.Fatalf("size mismatch: %d vs %d", v.Size(), phys.Size())
	}
	for n := 0; n < phys.Size(); n++ {
		pn := phys.Neighbours(mesh.NodeID(n))
		vn := v.Neighbours(mesh.NodeID(n))
		if len(pn) != len(vn) {
			t.Fatalf("node %d: neighbour counts differ (%d vs %d)", n, len(pn), len(vn))
		}
		seen := map[mesh.NodeID]bool{}
		for _, m := range pn {
			seen[m] = true
		}
		for _, m := range vn {
			if !seen[m] {
				t.Fatalf("node %d: virtual neighbour %d not a physical neighbour", n, m)
			}
		}
	}
}

func TestInterNodeDelivery(t *testing.T) {
	topo := mesh.MustRing(4)
	// PID 0 forwards its trigger to PID 1 (node 1), which records it.
	c := newEchoCluster(t, topo, 1, func(p PID) PID {
		if p == 0 {
			return 1
		}
		return -1
	})
	if err := c.Inject(0, "hello"); err != nil {
		t.Fatal(err)
	}
	stats := c.RunContext(context.Background())
	if !stats.Quiescent {
		t.Fatal("run did not quiesce")
	}
	p1 := c.Process(1).(*echoProc)
	if len(p1.received) != 1 || p1.received[0] != "hello" {
		t.Fatalf("pid 1 received %v, want [hello]", p1.received)
	}
	if p1.sources[0] != 0 {
		t.Errorf("pid 1 source = %d, want 0", p1.sources[0])
	}
}

func TestIntraNodeDelivery(t *testing.T) {
	topo := mesh.MustRing(4)
	// PID 0 (node 0, slot 0) forwards to PID 1 (node 0, slot 1): a local
	// sibling message that never crosses the interconnect.
	c := newEchoCluster(t, topo, 2, func(p PID) PID {
		if p == 0 {
			return 1
		}
		return -1
	})
	if err := c.Inject(0, 42); err != nil {
		t.Fatal(err)
	}
	stats := c.RunContext(context.Background())
	if !stats.Quiescent {
		t.Fatal("run did not quiesce")
	}
	p1 := c.Process(1).(*echoProc)
	if len(p1.received) != 1 || p1.received[0] != 42 {
		t.Fatalf("pid 1 received %v, want [42]", p1.received)
	}
	// Only the injected trigger crossed layer 1.
	if stats.TotalSent != 1 {
		t.Errorf("TotalSent = %d, want 1 (sibling send must be local)", stats.TotalSent)
	}
}

func TestSelfSendRejected(t *testing.T) {
	topo := mesh.MustRing(4)
	var errSeen error
	c, err := NewSkeleton(topo, 2).New(func(p PID) Process {
		return procFunc(func(ctx *Context, src PID, payload any) {
			errSeen = ctx.Send(ctx.Self(), payload)
		})
	}, simulator.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Inject(0, nil); err != nil {
		t.Fatal(err)
	}
	c.RunContext(context.Background())
	if errSeen == nil {
		t.Error("expected self-send rejection")
	}
}

// procFunc adapts a function to Process.
type procFunc func(ctx *Context, src PID, payload any)

func (f procFunc) Init(ctx *Context)                          {}
func (f procFunc) Receive(ctx *Context, src PID, payload any) { f(ctx, src, payload) }

// TestActivationBudgetTwoRunsInOneStep keeps the name it had when layer 2
// capped activations per step. With no cap, two messages waiting for two
// slots of one node when its tick begins both run in that tick.
func TestActivationBudgetTwoRunsInOneStep(t *testing.T) {
	topo := mesh.MustFullyConnected(2)
	var steps []int64
	c, err := NewSkeleton(topo, 2).New(func(p PID) Process {
		return procFunc(func(ctx *Context, src PID, payload any) {
			if ctx.Node() == 0 {
				steps = append(steps, ctx.Step())
			}
		})
	}, simulator.Config{LinkConfig: simulator.LinkConfig{DeliverPerStep: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Inject(0, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Inject(1, nil); err != nil {
		t.Fatal(err)
	}
	c.RunContext(context.Background())
	if len(steps) != 2 {
		t.Fatalf("activations = %d, want 2", len(steps))
	}
	if steps[0] != steps[1] {
		t.Errorf("activations on steps %v, want both in one step", steps)
	}
}

func TestRoundRobinFairness(t *testing.T) {
	// One node, 3 slots, two messages per slot injected slot by slot, all
	// delivered in the same step: round-robin must interleave the step's
	// activations 0,1,2,0,1,2 rather than draining one mailbox first.
	topo := mesh.MustFullyConnected(2)
	var order []int
	var steps []int64
	c, err := NewSkeleton(topo, 3).New(func(p PID) Process {
		return procFunc(func(ctx *Context, src PID, payload any) {
			if ctx.Node() == 0 {
				order = append(order, ctx.Slot())
				steps = append(steps, ctx.Step())
			}
		})
	}, simulator.Config{LinkConfig: simulator.LinkConfig{DeliverPerStep: 6}})
	if err != nil {
		t.Fatal(err)
	}
	for _, slot := range []PID{0, 0, 1, 1, 2, 2} {
		if err := c.Inject(slot, nil); err != nil {
			t.Fatal(err)
		}
	}
	c.RunContext(context.Background())
	want := []int{0, 1, 2, 0, 1, 2}
	if !slices.Equal(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for _, s := range steps {
		if s != steps[0] {
			t.Fatalf("activations on steps %v, want all six in one step", steps)
		}
	}
}

func TestActivationsPerNodeCounts(t *testing.T) {
	topo := mesh.MustRing(4)
	c := newEchoCluster(t, topo, 2, func(p PID) PID {
		if p == 0 {
			return 1 // local sibling forward
		}
		return -1
	})
	if err := c.Inject(0, nil); err != nil {
		t.Fatal(err)
	}
	c.RunContext(context.Background())
	acts := c.ActivationsPerNode()
	if acts[0] != 2 { // trigger + sibling message
		t.Errorf("node 0 activations = %d, want 2", acts[0])
	}
	for n := 1; n < 4; n++ {
		if acts[n] != 0 {
			t.Errorf("node %d activations = %d, want 0", n, acts[n])
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewSkeleton(mesh.MustRing(4), 1).New(nil, simulator.Config{}); err == nil {
		t.Error("expected error for nil factory")
	}
}

func TestMultiHopChain(t *testing.T) {
	// Chain a message around a ring through every node and back: pid i
	// forwards to pid (i+1) mod n.
	n := 8
	topo := mesh.MustRing(n)
	hops := 0
	c, err := NewSkeleton(topo, 1).New(func(p PID) Process {
		return procFunc(func(ctx *Context, src PID, payload any) {
			hops++
			next := PID((int(ctx.Self()) + 1) % n)
			if v := payload.(int); v > 0 {
				if err := ctx.Send(next, v-1); err != nil {
					panic(err)
				}
			}
		})
	}, simulator.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Inject(0, 2*n); err != nil {
		t.Fatal(err)
	}
	stats := c.RunContext(context.Background())
	if !stats.Quiescent {
		t.Fatal("chain did not quiesce")
	}
	if hops != 2*n+1 {
		t.Errorf("hops = %d, want %d", hops, 2*n+1)
	}
}

// A receiver poisons an envelope as it recycles it: were layer 1 ever to
// show a handler the same envelope twice (a retransmitted duplicate it
// failed to drop), the node would panic rather than deliver stale content.
func TestRecycledEnvelopeIsPoisoned(t *testing.T) {
	c := newEchoCluster(t, mesh.MustRing(3), 1, nil)
	env := c.envelope(envelope{SrcPID: 1, DstSlot: 0, Payload: "once"})
	c.nodes[0].Receive(nil, 1, env)
	if got := c.envelope(envelope{}); got != env {
		t.Fatal("the received envelope was not recycled")
	}
	c.nodes[0].Receive(nil, 1, env) // a fresh send reusing it is fine
	defer func() {
		if recover() == nil {
			t.Error("a node accepted an envelope it had already recycled")
		}
	}()
	c.nodes[0].Receive(nil, 1, env)
}

// relayToken is the one message of a relay, passed by pointer so that no
// send boxes it.
type relayToken struct{ left int }

// relayProc forwards the token to its neighbours in turn until the token's
// hop count runs out, so the relay crosses the interconnect and stays on a
// node by turns.
type relayProc struct{ next int }

func (r *relayProc) Init(ctx *Context) {}

func (r *relayProc) Receive(ctx *Context, src PID, payload any) {
	tok := payload.(*relayToken)
	if tok.left == 0 {
		return
	}
	tok.left--
	nbrs := ctx.Neighbours()
	r.next = (r.next + 1) % len(nbrs)
	if err := ctx.Send(nbrs[r.next], tok); err != nil {
		panic(err)
	}
}

// raceEnabled is set under the race detector, which allocates on its own
// account and so blurs exact allocation counts.
var raceEnabled bool

// A node keeps no per-activation state: a relay of 2^16 hops allocates
// exactly what one of 2^10 hops does, machine build included.
func TestRelayAllocsIndependentOfLength(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	relay := func(hops int) float64 {
		return testing.AllocsPerRun(3, func() {
			c, err := NewSkeleton(mesh.MustTorus(4, 4), 2).New(func(PID) Process { return &relayProc{} }, simulator.Config{MaxSteps: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Inject(0, &relayToken{left: hops}); err != nil {
				t.Fatal(err)
			}
			if stats := c.RunContext(context.Background()); !stats.Quiescent {
				t.Fatalf("relay of %d hops did not quiesce", hops)
			}
			var acts int64
			for _, a := range c.ActivationsPerNode() {
				acts += a
			}
			if acts != int64(hops)+1 {
				t.Fatalf("relay of %d hops made %d activations", hops, acts)
			}
		})
	}
	short, long := relay(1<<10), relay(1<<16)
	if short != long {
		t.Errorf("relay allocations grow with length: %.0f for 2^10 hops, %.0f for 2^16", short, long)
	}
}
