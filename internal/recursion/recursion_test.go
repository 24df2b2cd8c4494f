package recursion

import (
	"context"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"hypersolve/internal/mapping"
	"hypersolve/internal/mesh"
	"hypersolve/internal/sched"
	"hypersolve/internal/simulator"
)

// newNet assembles the full layer 1-4 stack for a task.
func newNet(t *testing.T, topo mesh.Topology, mapper mapping.Factory, task Task) *mapping.Network {
	t.Helper()
	net, err := mapping.NewSkeleton(topo, 1).New(mapper, AppFactory(task), simulator.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// runRoot triggers the task at PID 0 and returns the root result.
func runRoot(t *testing.T, net *mapping.Network, arg Value) (Value, bool) {
	t.Helper()
	if err := net.Trigger(0, arg); err != nil {
		t.Fatal(err)
	}
	stats := net.RunContext(context.Background())
	if !stats.Quiescent {
		t.Fatal("run did not quiesce")
	}
	rt := net.App(0).(*Runtime)
	return rt.RootResult()
}

// totalFrames sums the frames every process started and still holds live.
func totalFrames(net *mapping.Network) (started, live int64) {
	for pid := 0; pid < net.Virtual().Size(); pid++ {
		rt := net.App(sched.PID(pid)).(*Runtime)
		started += rt.FramesStarted()
		live += int64(rt.LiveFrames())
	}
	return
}

// sumTask is the paper's Listing 3: sum(n) = n + sum(n-1) with a single
// delegated subcall per level.
var sumTask Task = func(f *Frame, arg Value) Value {
	n := arg.(int)
	if n < 1 {
		return 0
	}
	total := f.CallSync(n - 1).(int)
	return total + n
}

// fibTask forks two subcalls per level: the canonical fork-join shape.
var fibTask Task = func(f *Frame, arg Value) Value {
	n := arg.(int)
	if n < 2 {
		return n
	}
	f.Call(n - 1)
	f.Call(n - 2)
	vs := f.Sync()
	return vs[0].(int) + vs[1].(int)
}

func TestListing3SumOnTorus(t *testing.T) {
	net := newNet(t, mesh.MustTorus(6, 6), mapping.NewRoundRobin(), sumTask)
	got, ok := runRoot(t, net, 10)
	if !ok {
		t.Fatal("root result missing")
	}
	if got.(int) != 55 {
		t.Errorf("sum(10) = %v, want 55", got)
	}
}

func TestSumAcrossTopologiesAndMappers(t *testing.T) {
	topos := []mesh.Topology{
		mesh.MustTorus(4, 4),
		mesh.MustTorus(3, 3, 3),
		mesh.MustHypercube(4),
		mesh.MustFullyConnected(9),
		mesh.MustRing(7),
		mesh.MustGrid(4, 4),
	}
	mappers := []mapping.Factory{
		mapping.NewRoundRobin(),
		mapping.NewLeastBusy(),
		mapping.NewRandom(),
		mapping.NewWeighted(1),
	}
	for _, topo := range topos {
		for _, mf := range mappers {
			net := newNet(t, topo, mf, sumTask)
			got, ok := runRoot(t, net, 12)
			if !ok || got.(int) != 78 {
				t.Errorf("%s: sum(12) = %v (ok=%v), want 78", topo.Name(), got, ok)
			}
		}
	}
}

func TestFibForkJoin(t *testing.T) {
	want := []int{0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55}
	for n := 0; n <= 10; n++ {
		net := newNet(t, mesh.MustTorus(5, 5), mapping.NewRoundRobin(), fibTask)
		got, ok := runRoot(t, net, n)
		if !ok || got.(int) != want[n] {
			t.Errorf("fib(%d) = %v (ok=%v), want %d", n, got, ok, want[n])
		}
	}
}

func TestPropertySumMatchesClosedForm(t *testing.T) {
	f := func(raw uint8) bool {
		n := int(raw % 40)
		net, err := mapping.NewSkeleton(mesh.MustTorus(5, 5), 1).New(mapping.NewLeastBusy(), AppFactory(sumTask), simulator.Config{})
		if err != nil {
			return false
		}
		if err := net.Trigger(0, n); err != nil {
			return false
		}
		if stats := net.RunContext(context.Background()); !stats.Quiescent {
			return false
		}
		got, ok := net.App(0).(*Runtime).RootResult()
		return ok && got.(int) == n*(n+1)/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestChooseFirstValidWins(t *testing.T) {
	// Leaf calls return their argument; the root chooses the first result
	// exceeding 10. Exactly one candidate qualifies.
	task := func(f *Frame, arg Value) Value {
		req := arg.(map[string]any)
		if req["leaf"].(bool) {
			return req["v"].(int)
		}
		v, ok := f.Choose(func(v Value) bool { return v.(int) > 10 },
			map[string]any{"leaf": true, "v": 5},
			map[string]any{"leaf": true, "v": 20},
			map[string]any{"leaf": true, "v": 7},
		)
		if !ok {
			return -1
		}
		return v
	}
	net := newNet(t, mesh.MustTorus(4, 4), mapping.NewRoundRobin(), task)
	got, ok := runRoot(t, net, map[string]any{"leaf": false})
	if !ok {
		t.Fatal("no root result")
	}
	if got.(int) != 20 {
		t.Errorf("choose = %v, want 20", got)
	}
}

func TestChooseAllInvalidYieldsNull(t *testing.T) {
	task := func(f *Frame, arg Value) Value {
		req := arg.(int)
		if req >= 0 {
			return req
		}
		_, ok := f.Choose(func(v Value) bool { return v.(int) > 100 }, 1, 2, 3)
		return ok
	}
	net := newNet(t, mesh.MustTorus(4, 4), mapping.NewRoundRobin(), task)
	got, ok := runRoot(t, net, -1)
	if !ok {
		t.Fatal("no root result")
	}
	if got.(bool) != false {
		t.Error("choose over all-invalid results must report !ok")
	}
}

// chooseChainTask: the root (-1) chooses between a fast valid leaf (0) and a
// slow chain of chainLen sequential calls that also ends in the leaf.
func chooseChainTask(chainLen int) Task {
	return func(f *Frame, arg Value) Value {
		n := arg.(int)
		switch {
		case n == -1:
			v, ok := f.Choose(func(v Value) bool { return v.(int) > 0 }, 0, chainLen)
			if !ok {
				return -1
			}
			return v.(int)
		case n == 0:
			return 1
		default:
			return f.CallSync(n - 1)
		}
	}
}

// TestChooseLateRepliesIgnored: a choice resolves on its fast leaf while
// the losing branch is still running. The loser runs to the end — every
// frame it would start on its own is started — its late reply is absorbed
// silently, and the machine quiesces with no live frame and no goroutine
// left behind.
func TestChooseLateRepliesIgnored(t *testing.T) {
	const phases = 30
	// phased loses with sequential leaf rounds, parked between them.
	phased := func(f *Frame, arg Value) Value {
		n := arg.(int)
		switch {
		case n == -1:
			v, _ := f.Choose(func(v Value) bool { return v.(int) > 0 }, 0, -2)
			return v
		case n == 0:
			return 1
		case n == -2:
			total := 0
			for p := 0; p < phases; p++ {
				total += f.CallSync(100 + p).(int)
			}
			return -total
		}
		return n
	}
	// tree loses with a binary fork-join tree of depth 6.
	tree := func(f *Frame, arg Value) Value {
		n := arg.(int)
		switch {
		case n == -1:
			v, _ := f.Choose(func(v Value) bool { return v.(int) > 0 }, 0, 6)
			return v
		case n == 0:
			return 1
		case n == 1:
			return -1
		}
		f.Call(n - 1)
		f.Call(n - 1)
		f.Sync()
		return -1
	}
	cases := []struct {
		name   string
		topo   mesh.Topology
		mapper mapping.Factory
		task   Task
		frames int64 // root + fast leaf + the whole losing branch
	}{
		{"chain", mesh.MustTorus(5, 5), mapping.NewRoundRobin(), chooseChainTask(10), 2 + 11},
		{"phased", mesh.MustTorus(8, 8), mapping.NewRoundRobin(), phased, 2 + 1 + phases},
		{"tree", mesh.MustTorus(6, 6), mapping.NewRoundRobin(), tree, 2 + 63},
		{"long-chain", mesh.MustTorus(6, 6), mapping.NewLeastBusy(), chooseChainTask(60), 2 + 61},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			net := newNet(t, tc.topo, tc.mapper, tc.task)
			got, ok := runRoot(t, net, -1)
			if !ok || got.(int) != 1 {
				t.Fatalf("root = %v (ok=%v), want 1", got, ok)
			}
			started, live := totalFrames(net)
			if live != 0 {
				t.Errorf("%d live frames after quiescence", live)
			}
			if started != tc.frames {
				t.Errorf("started %d frames, want %d: the losing branch must run to completion", started, tc.frames)
			}
			// No grace period: a frame's coroutine is gone by the time
			// next() or stop() returns, so the count is back as soon as
			// Run is.
			if after := runtime.NumGoroutine(); after > before {
				t.Errorf("goroutines leaked: before=%d after=%d", before, after)
			}
		})
	}
}

// The three TestCancel* tests keep the names they had when the runtime could
// cancel a choice's losing branches. Losers now always run to completion
// (Section IV-C), and these tests pin that the choices they covered still
// reach the same verdicts.

// TestCancelDoesNotChangeVerdicts: the fast leaf wins under every mapper
// and chain length, including chains short enough that the loser's reply
// arrives right behind the winner's.
func TestCancelDoesNotChangeVerdicts(t *testing.T) {
	for _, mf := range []mapping.Factory{mapping.NewRoundRobin(), mapping.NewLeastBusy(), mapping.NewRandom()} {
		for _, chain := range []int{0, 1, 5, 25} {
			net := newNet(t, mesh.MustTorus(5, 5), mf, chooseChainTask(chain))
			if v, ok := runRoot(t, net, -1); !ok || v.(int) != 1 {
				t.Errorf("chain %d: result %v (ok=%v), want 1", chain, v, ok)
			}
		}
	}
}

// TestCancelRaceWithInFlightReply: with a chain of length 1 the losing
// branch finishes almost at once, so its late reply often arrives in the
// same step as the winner's or the parent's own exit. Many seeds vary the
// timing; the late reply must be absorbed without changing the result.
func TestCancelRaceWithInFlightReply(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		net, err := mapping.NewSkeleton(mesh.MustTorus(4, 4), 1).New(mapping.NewRandom(), AppFactory(chooseChainTask(1)), simulator.Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if v, ok := runRoot(t, net, -1); !ok || v.(int) != 1 {
			t.Errorf("seed %d: result %v (ok=%v), want 1", seed, v, ok)
		}
		if _, live := totalFrames(net); live != 0 {
			t.Errorf("seed %d: %d live frames after quiescence", seed, live)
		}
	}
}

// TestCancelAllInvalidStillYieldsNull: when no branch is valid, nothing
// resolves early, every branch runs and replies, and Choose reports !ok.
func TestCancelAllInvalidStillYieldsNull(t *testing.T) {
	task := func(f *Frame, arg Value) Value {
		n := arg.(int)
		if n >= 0 {
			return n
		}
		_, ok := f.Choose(func(v Value) bool { return v.(int) > 10 }, 1, 2, 3)
		return ok
	}
	net := newNet(t, mesh.MustTorus(4, 4), mapping.NewRoundRobin(), task)
	v, ok := runRoot(t, net, -1)
	if !ok || v.(bool) != false {
		t.Errorf("result %v (ok=%v), want false", v, ok)
	}
	started, live := totalFrames(net)
	if started != 4 || live != 0 {
		t.Errorf("frames started %d, live %d; want 4 (root + 3 branches), 0", started, live)
	}
}

func TestMixedCallAndChoose(t *testing.T) {
	// A frame issues a gather call, then a choice, then syncs the gather:
	// groups must not interfere.
	task := func(f *Frame, arg Value) Value {
		mode := arg.(string)
		switch mode {
		case "leafA":
			return 100
		case "leafB":
			return 7
		default:
			f.Call("leafA") // gather group
			v, ok := f.Choose(func(v Value) bool { return v.(int) == 7 }, "leafB")
			if !ok {
				return -1
			}
			gathered := f.Sync()
			return gathered[0].(int) + v.(int)
		}
	}
	net := newNet(t, mesh.MustTorus(4, 4), mapping.NewRoundRobin(), task)
	got, ok := runRoot(t, net, "root")
	if !ok {
		t.Fatal("no root result")
	}
	if got.(int) != 107 {
		t.Errorf("mixed result = %v, want 107", got)
	}
}

func TestSyncWithNoCallsReturnsEmpty(t *testing.T) {
	task := func(f *Frame, arg Value) Value {
		vs := f.Sync()
		return len(vs)
	}
	net := newNet(t, mesh.MustTorus(4, 4), mapping.NewRoundRobin(), task)
	got, ok := runRoot(t, net, nil)
	if !ok || got.(int) != 0 {
		t.Errorf("empty Sync = %v (ok=%v), want 0", got, ok)
	}
}

func TestChooseWithNoCallsReturnsNotOK(t *testing.T) {
	task := func(f *Frame, arg Value) Value {
		_, ok := f.Choose(nil)
		return ok
	}
	net := newNet(t, mesh.MustTorus(4, 4), mapping.NewRoundRobin(), task)
	got, ok := runRoot(t, net, nil)
	if !ok || got.(bool) != false {
		t.Errorf("empty Choose = %v (ok=%v), want false", got, ok)
	}
}

func TestWideFanout(t *testing.T) {
	// One frame forks 32 children and sums their results; exercises large
	// gather groups and result ordering.
	task := func(f *Frame, arg Value) Value {
		n := arg.(int)
		if n >= 0 {
			return n * n
		}
		for i := 0; i < 32; i++ {
			f.Call(i)
		}
		vs := f.Sync()
		total := 0
		for i, v := range vs {
			if v.(int) != i*i {
				panic("results out of issue order")
			}
			total += v.(int)
		}
		return total
	}
	net := newNet(t, mesh.MustTorus(6, 6), mapping.NewLeastBusy(), task)
	got, ok := runRoot(t, net, -1)
	want := 0
	for i := 0; i < 32; i++ {
		want += i * i
	}
	if !ok || got.(int) != want {
		t.Errorf("fanout sum = %v (ok=%v), want %d", got, ok, want)
	}
}

func TestFramesDistributeAcrossMesh(t *testing.T) {
	// fib(12) creates hundreds of frames; with round-robin mapping on a
	// torus they must not all pile onto one node.
	net := newNet(t, mesh.MustTorus(5, 5), mapping.NewRoundRobin(), fibTask)
	if _, ok := runRoot(t, net, 12); !ok {
		t.Fatal("no root result")
	}
	busy := 0
	var total int64
	for pid := 0; pid < net.Virtual().Size(); pid++ {
		n := net.App(sched.PID(pid)).(*Runtime).FramesStarted()
		total += n
		if n > 0 {
			busy++
		}
	}
	if busy < 20 {
		t.Errorf("only %d/25 nodes evaluated frames; expected wide distribution", busy)
	}
	if total < 100 {
		t.Errorf("total frames %d unexpectedly small for fib(12)", total)
	}
}

func TestDeterministicFrameCounts(t *testing.T) {
	run := func() []int64 {
		net := newNet(t, mesh.MustTorus(4, 4), mapping.NewLeastBusy(), fibTask)
		if _, ok := runRoot(t, net, 10); !ok {
			t.Fatal("no root result")
		}
		out := make([]int64, net.Virtual().Size())
		for pid := range out {
			out[pid] = net.App(sched.PID(pid)).(*Runtime).FramesStarted()
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("frame counts diverge at pid %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestAbortReleasesFrames(t *testing.T) {
	before := runtime.NumGoroutine()
	// An infinite chain: every frame spawns another. MaxSteps cuts it off.
	task := func(f *Frame, arg Value) Value {
		return f.CallSync(arg)
	}
	net, err := mapping.NewSkeleton(mesh.MustTorus(4, 4), 1).New(mapping.NewRoundRobin(), AppFactory(task), simulator.Config{MaxSteps: 60})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Trigger(0, "work"); err != nil {
		t.Fatal(err)
	}
	stats := net.RunContext(context.Background())
	if stats.Quiescent {
		t.Fatal("infinite chain unexpectedly quiesced")
	}
	for pid := 0; pid < net.Virtual().Size(); pid++ {
		net.App(sched.PID(pid)).(*Runtime).Abort()
	}
	// Frame goroutines unwind asynchronously after the abort handshake.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
}

func TestHintedCallsFlowThroughMapping(t *testing.T) {
	// Run with the weighted mapper and hinted calls; correctness must be
	// unaffected and the run must quiesce.
	task := func(f *Frame, arg Value) Value {
		n := arg.(int)
		if n < 2 {
			return n
		}
		f.CallHinted(n-1, float64(n-1))
		f.CallHinted(n-2, float64(n-2))
		vs := f.Sync()
		return vs[0].(int) + vs[1].(int)
	}
	net := newNet(t, mesh.MustTorus(4, 4), mapping.NewWeighted(2), task)
	got, ok := runRoot(t, net, 10)
	if !ok || got.(int) != 55 {
		t.Errorf("hinted fib(10) = %v (ok=%v), want 55", got, ok)
	}
}

func TestChooseHintedResolves(t *testing.T) {
	task := func(f *Frame, arg Value) Value {
		n := arg.(int)
		if n >= 0 {
			return n
		}
		v, ok := f.ChooseHinted(func(v Value) bool { return v.(int) == 2 },
			HintedCall{Arg: 1, Hint: 1},
			HintedCall{Arg: 2, Hint: 4},
		)
		if !ok {
			return -1
		}
		return v
	}
	net := newNet(t, mesh.MustTorus(4, 4), mapping.NewWeighted(1), task)
	got, ok := runRoot(t, net, -5)
	if !ok || got.(int) != 2 {
		t.Errorf("hinted choose = %v (ok=%v), want 2", got, ok)
	}
}
