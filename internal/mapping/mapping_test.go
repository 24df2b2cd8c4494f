package mapping

import (
	"context"
	"sync"
	"testing"

	"hypersolve/internal/mesh"
	"hypersolve/internal/sched"
	"hypersolve/internal/simulator"
)

// sumApp is the paper's Listing 2: a message-passing implementation of
// sum(n) = n + sum(n-1) using tickets instead of node identities. Where the
// listing stores a single Continue(ticket, n) state for brevity, this
// version keeps a table of continuations keyed by the issued subcall
// ticket, so a node can host several in-flight frames at once (the general
// form the paper's ticket mechanism supports).
type sumApp struct {
	conts map[Ticket]sumCont
	done  bool
	total int
}

type sumCont struct {
	parent Ticket // ticket to quote when forwarding the result
	n      int    // value to add to the subcall result
	isRoot bool   // true for the trigger-issued call
}

type sumCall struct{ N int }
type sumResult struct{ Total int }

func (s *sumApp) Init(ctx *Context) { s.conts = make(map[Ticket]sumCont) }

func (s *sumApp) Recv(ctx *Context, ticket Ticket, kind Kind, payload any) {
	switch kind {
	case Trigger:
		n := payload.(int)
		sub, err := ctx.SendWork(sumCall{N: n}, 0)
		if err != nil {
			panic(err)
		}
		s.conts[sub] = sumCont{isRoot: true}
	case Work:
		call := payload.(sumCall)
		if call.N < 1 {
			if err := ctx.Reply(ticket, sumResult{Total: 0}); err != nil {
				panic(err)
			}
			return
		}
		sub, err := ctx.SendWork(sumCall{N: call.N - 1}, 0)
		if err != nil {
			panic(err)
		}
		s.conts[sub] = sumCont{parent: ticket, n: call.N}
	case Reply:
		res := payload.(sumResult)
		cont, ok := s.conts[ticket]
		if !ok {
			panic("reply for unknown continuation")
		}
		delete(s.conts, ticket)
		if cont.isRoot {
			s.done = true
			s.total = res.Total
			return
		}
		if err := ctx.Reply(cont.parent, sumResult{Total: res.Total + cont.n}); err != nil {
			panic(err)
		}
	}
}

func newSumNetwork(t *testing.T, topo mesh.Topology, mapper Factory) *Network {
	t.Helper()
	net, err := NewSkeleton(topo, 1).New(mapper, func(p sched.PID) App { return &sumApp{} }, simulator.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestListing2SumOnTorus(t *testing.T) {
	for _, mapper := range []Factory{NewRoundRobin(), NewLeastBusy(), NewRandom(), NewWeighted(1)} {
		net := newSumNetwork(t, mesh.MustTorus(6, 6), mapper)
		if err := net.Trigger(0, 10); err != nil {
			t.Fatal(err)
		}
		stats := net.RunContext(context.Background())
		if !stats.Quiescent {
			t.Fatal("sum run did not quiesce")
		}
		root := net.App(0).(*sumApp)
		if !root.done {
			t.Fatalf("root never received the final result")
		}
		if root.total != 55 {
			t.Errorf("sum(10) = %d, want 55", root.total)
		}
	}
}

func TestListing2SumVariousN(t *testing.T) {
	for _, n := range []int{0, 1, 5, 17} {
		net := newSumNetwork(t, mesh.MustTorus(8, 8), NewRoundRobin())
		if err := net.Trigger(0, n); err != nil {
			t.Fatal(err)
		}
		net.RunContext(context.Background())
		root := net.App(0).(*sumApp)
		want := n * (n + 1) / 2
		if !root.done || root.total != want {
			t.Errorf("sum(%d) = %d (done=%v), want %d", n, root.total, root.done, want)
		}
	}
}

func TestTicketsUniquePerSender(t *testing.T) {
	// Drive SendWork repeatedly from one app and check ticket uniqueness.
	seen := make(map[Ticket]bool)
	app := appFunc(func(ctx *Context, ticket Ticket, kind Kind, payload any) {
		if kind != Trigger {
			return
		}
		for i := 0; i < 100; i++ {
			tk, err := ctx.SendWork(sumCall{N: 0}, 0)
			if err != nil {
				panic(err)
			}
			if seen[tk] {
				panic("duplicate ticket")
			}
			seen[tk] = true
		}
	})
	sink := appFunc(func(ctx *Context, ticket Ticket, kind Kind, payload any) {})
	net, err := NewSkeleton(mesh.MustFullyConnected(4), 1).New(NewRoundRobin(), func(p sched.PID) App {
		if p == 0 {
			return app
		}
		return sink
	}, simulator.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Trigger(0, nil); err != nil {
		t.Fatal(err)
	}
	net.RunContext(context.Background())
	if len(seen) != 100 {
		t.Fatalf("issued %d unique tickets, want 100", len(seen))
	}
}

// appFunc adapts a function to App.
type appFunc func(ctx *Context, ticket Ticket, kind Kind, payload any)

func (f appFunc) Init(ctx *Context) {}
func (f appFunc) Recv(ctx *Context, ticket Ticket, kind Kind, payload any) {
	f(ctx, ticket, kind, payload)
}

func TestReplyToUnknownTicketErrors(t *testing.T) {
	var replyErr error
	net, err := NewSkeleton(mesh.MustFullyConnected(2), 1).New(NewRoundRobin(), func(p sched.PID) App {
		return appFunc(func(ctx *Context, ticket Ticket, kind Kind, payload any) {
			if kind == Trigger {
				replyErr = ctx.Reply(Ticket(999), nil)
			}
		})
	}, simulator.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Trigger(0, nil); err != nil {
		t.Fatal(err)
	}
	net.RunContext(context.Background())
	if replyErr == nil {
		t.Error("expected unknown-ticket reply error")
	}
}

func TestReplyTicketConsumedOnce(t *testing.T) {
	// The worker replies twice to the same ticket; the second must fail.
	var second error
	worker := appFunc(func(ctx *Context, ticket Ticket, kind Kind, payload any) {
		if kind == Work {
			if err := ctx.Reply(ticket, 1); err != nil {
				panic(err)
			}
			second = ctx.Reply(ticket, 2)
		}
	})
	root := appFunc(func(ctx *Context, ticket Ticket, kind Kind, payload any) {
		if kind == Trigger {
			if _, err := ctx.SendWork(nil, 0); err != nil {
				panic(err)
			}
		}
	})
	net, err := NewSkeleton(mesh.MustFullyConnected(2), 1).New(NewRoundRobin(), func(p sched.PID) App {
		if p == 0 {
			return root
		}
		return worker
	}, simulator.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Trigger(0, nil); err != nil {
		t.Fatal(err)
	}
	net.RunContext(context.Background())
	if second == nil {
		t.Error("expected second reply to fail")
	}
}

func TestRoundRobinCyclesThroughNeighbours(t *testing.T) {
	rr := NewRoundRobin()(0, nil, 0)
	v := View{Neighbours: []sched.PID{10, 20, 30}}
	got := []int{rr.Choose(v), rr.Choose(v), rr.Choose(v), rr.Choose(v)}
	want := []int{0, 1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("choices = %v, want %v", got, want)
		}
	}
}

func TestLeastBusyPicksMinimum(t *testing.T) {
	lb := NewLeastBusy()(0, nil, 0)
	v := View{
		Neighbours: []sched.PID{10, 20, 30, 40},
		Loads:      []int64{5, 2, 7, 2},
	}
	if got := lb.Choose(v); got != 1 {
		t.Errorf("Choose = %d, want 1 (first minimum from cursor 0)", got)
	}
	// Ties rotate: the next choice under the same loads is the other
	// minimum, index 3.
	if got := lb.Choose(v); got != 3 {
		t.Errorf("second Choose = %d, want 3 (tie rotation)", got)
	}
	// Non-tied minimum is always taken regardless of cursor.
	v.Loads = []int64{5, 9, 7, 2}
	if got := lb.Choose(v); got != 3 {
		t.Errorf("third Choose = %d, want 3 (unique minimum)", got)
	}
}

func TestLeastBusyColdStartDegradesToRoundRobin(t *testing.T) {
	// With no activity heard yet (all counts zero) the tie rotation makes
	// least-busy behave like round-robin instead of herding onto one
	// neighbour.
	lb := NewLeastBusy()(0, nil, 0)
	v := View{
		Neighbours: []sched.PID{10, 20, 30},
		Loads:      []int64{0, 0, 0},
	}
	want := []int{0, 1, 2, 0, 1}
	for i, w := range want {
		if got := lb.Choose(v); got != w {
			t.Fatalf("cold-start choice %d = %d, want %d", i, got, w)
		}
	}
}

func TestRandomMapperDeterministicPerSeed(t *testing.T) {
	mk := func() []int {
		rm := NewRandom()(0, nil, 42)
		v := View{Neighbours: []sched.PID{1, 2, 3, 4, 5}}
		out := make([]int, 20)
		for i := range out {
			out[i] = rm.Choose(v)
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("random mapper not deterministic for equal seeds")
		}
	}
	spread := map[int]bool{}
	for _, c := range a {
		spread[c] = true
	}
	if len(spread) < 2 {
		t.Error("random mapper never varied its choice across 20 draws")
	}
}

func TestWeightedAvoidsOptimisticallyLoadedNeighbour(t *testing.T) {
	w := NewWeighted(1)(0, nil, 0)
	v := View{
		Neighbours:  []sched.PID{10, 20},
		Loads:       []int64{3, 3},
		Outstanding: []float64{5, 0},
	}
	if got := w.Choose(v); got != 1 {
		t.Errorf("Choose = %d, want 1 (index 0 has outstanding weight)", got)
	}
}

func TestOutstandingResetsOnFreshActivity(t *testing.T) {
	// After assigning work to a neighbour, its outstanding weight is
	// non-zero; once a message arrives from it, the weight resets.
	var view0, view1 View
	probe := &probeAlgo{}
	root := appFunc(func(ctx *Context, ticket Ticket, kind Kind, payload any) {
		switch kind {
		case Trigger:
			if _, err := ctx.SendWork(nil, 0); err != nil {
				panic(err)
			}
			view0 = snapshotView(ctx)
		case Reply:
			view1 = snapshotView(ctx)
		}
	})
	worker := appFunc(func(ctx *Context, ticket Ticket, kind Kind, payload any) {
		if kind == Work {
			if err := ctx.Reply(ticket, nil); err != nil {
				panic(err)
			}
		}
	})
	net, err := NewSkeleton(mesh.MustFullyConnected(2), 1).New(func(self sched.PID, nbrs []sched.PID, seed int64) Algorithm {
		return probe
	}, func(p sched.PID) App {
		if p == 0 {
			return root
		}
		return worker
	}, simulator.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Trigger(0, nil); err != nil {
		t.Fatal(err)
	}
	net.RunContext(context.Background())
	if len(view0.Outstanding) != 1 || view0.Outstanding[0] != 1 {
		t.Errorf("outstanding after send = %v, want [1]", view0.Outstanding)
	}
	if len(view1.Outstanding) != 1 || view1.Outstanding[0] != 0 {
		t.Errorf("outstanding after reply = %v, want [0]", view1.Outstanding)
	}
}

// probeAlgo always picks index 0.
type probeAlgo struct{}

func (*probeAlgo) Name() string      { return "probe" }
func (*probeAlgo) Choose(v View) int { return 0 }

func snapshotView(ctx *Context) View {
	rt := ctx.rt
	return View{
		Loads:       append([]int64(nil), rt.loads...),
		Outstanding: append([]float64(nil), rt.outstanding...),
	}
}

func TestActivityPiggybackUpdatesLoads(t *testing.T) {
	// Root sends work to the single neighbour; the reply carries the
	// worker's received count (1), which updates root's load record.
	var after View
	root := appFunc(func(ctx *Context, ticket Ticket, kind Kind, payload any) {
		switch kind {
		case Trigger:
			if _, err := ctx.SendWork(nil, 0); err != nil {
				panic(err)
			}
		case Reply:
			after = snapshotView(ctx)
		}
	})
	worker := appFunc(func(ctx *Context, ticket Ticket, kind Kind, payload any) {
		if kind == Work {
			if err := ctx.Reply(ticket, nil); err != nil {
				panic(err)
			}
		}
	})
	net, err := NewSkeleton(mesh.MustFullyConnected(2), 1).New(NewRoundRobin(), func(p sched.PID) App {
		if p == 0 {
			return root
		}
		return worker
	}, simulator.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Trigger(0, nil); err != nil {
		t.Fatal(err)
	}
	net.RunContext(context.Background())
	if len(after.Loads) != 1 || after.Loads[0] != 1 {
		t.Errorf("loads after reply = %v, want [1]", after.Loads)
	}
}

// choiceLog wraps a factory so that every Choose of one machine is recorded
// in SendWork order.
type choiceLog struct {
	Algorithm
	choices *[]int
}

func (c choiceLog) Choose(v View) int {
	idx := c.Algorithm.Choose(v)
	*c.choices = append(*c.choices, idx)
	return idx
}

func logChoices(inner Factory, into *[]int) Factory {
	return func(self sched.PID, nbrs []sched.PID, seed int64) Algorithm {
		return choiceLog{inner(self, nbrs, seed), into}
	}
}

// TestIdealCursorBelongsToTheMachine pins the idealised mapper's contract:
// on one machine its choices are exactly 0,1,2,… modulo the degree in
// SendWork order, whichever node is choosing, and two machines built from
// one factory and running at the same time each see their own sequence.
func TestIdealCursorBelongsToTheMachine(t *testing.T) {
	ideal := NewGlobalRoundRobin()
	const degree = 4 // 2D torus
	var logs [2][]int
	var wg sync.WaitGroup
	for i := range logs {
		net := newSumNetwork(t, mesh.MustTorus(6, 6), logChoices(ideal, &logs[i]))
		if err := net.Trigger(0, 20+i); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			net.RunContext(context.Background())
		}()
	}
	wg.Wait()
	for i, log := range logs {
		if want := 20 + i + 1; len(log) != want { // calls sum(n) … sum(0)
			t.Fatalf("machine %d mapped %d work messages, want %d", i, len(log), want)
		}
		for k, idx := range log {
			if idx != k%degree {
				t.Fatalf("machine %d: choices %v, want 0,1,2,… mod %d", i, log, degree)
			}
		}
	}
}

func TestRegistry(t *testing.T) {
	for _, spec := range []string{"rr", "rr-stagger", "lbn", "random", "weighted", "weighted:2.5", "ideal"} {
		f, err := Registry(spec)
		if err != nil {
			t.Errorf("Registry(%q): %v", spec, err)
			continue
		}
		algo := f(0, nil, 1)
		if algo == nil {
			t.Errorf("Registry(%q) factory returned nil", spec)
		}
	}
	for _, spec := range []string{"", "bogus", "weighted:xx"} {
		if _, err := Registry(spec); err == nil {
			t.Errorf("Registry(%q): expected error", spec)
		}
	}
}

func TestKindString(t *testing.T) {
	if Trigger.String() != "trigger" || Work.String() != "work" || Reply.String() != "reply" {
		t.Error("kind names wrong")
	}
	if Kind(42).String() == "" {
		t.Error("unknown kind should format")
	}
}

func TestConfigValidation(t *testing.T) {
	sk := NewSkeleton(mesh.MustRing(4), 1)
	app := func(sched.PID) App { return &sumApp{} }
	if _, err := sk.New(nil, app, simulator.Config{}); err == nil {
		t.Error("expected error for missing mapper")
	}
	if _, err := sk.New(NewRoundRobin(), nil, simulator.Config{}); err == nil {
		t.Error("expected error for missing factory")
	}
}

func TestReceivedPerProcess(t *testing.T) {
	net := newSumNetwork(t, mesh.MustTorus(4, 4), NewRoundRobin())
	if err := net.Trigger(0, 8); err != nil {
		t.Fatal(err)
	}
	net.RunContext(context.Background())
	counts := net.ReceivedPerProcess()
	var total int64
	for _, c := range counts {
		total += c
	}
	// sum(8): 1 trigger + 9 calls + 9 replies = 19 mapping-layer receives.
	if total != 19 {
		t.Errorf("total received = %d, want 19", total)
	}
}

// The layer-3 counterpart of sched.TestRecycledEnvelopeIsPoisoned: a process
// shown an envelope it has already unpacked panics on its kind.
func TestRecycledEnvelopeIsPoisoned(t *testing.T) {
	var got []any
	net, err := NewSkeleton(mesh.MustRing(3), 1).New(NewRoundRobin(), func(sched.PID) App {
		return appFunc(func(ctx *Context, ticket Ticket, kind Kind, payload any) { got = append(got, payload) })
	}, simulator.Config{})
	if err != nil {
		t.Fatal(err)
	}
	env := net.envelope(envelope{Kind: Trigger, Payload: "once"})
	rt := net.runtimes[0]
	rt.Receive(rt.ctx.sctx, sched.NonePID, env)
	if len(got) != 1 || got[0] != "once" || net.envelope(envelope{Kind: Trigger}) != env {
		t.Fatalf("delivered %v; the envelope was not unpacked and recycled", got)
	}
	rt.Receive(rt.ctx.sctx, sched.NonePID, env)
	defer func() {
		if recover() == nil {
			t.Error("a process accepted an envelope it had already recycled")
		}
	}()
	rt.Receive(rt.ctx.sctx, sched.NonePID, env)
}
