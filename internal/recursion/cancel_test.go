package recursion

import (
	"runtime"
	"testing"

	"hypersolve/internal/mapping"
	"hypersolve/internal/mesh"
	"hypersolve/internal/sched"
)

// newCancelNet assembles the stack with speculative cancellation enabled.
func newCancelNet(t *testing.T, topo mesh.Topology, mapper mapping.Factory, task Task) *mapping.Network {
	t.Helper()
	net, err := mapping.New(mapping.Config{
		Physical: topo,
		Mapper:   mapper,
		Factory:  AppFactoryOpts(task, Options{CancelSpeculative: true}),
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// chooseChainTask: the root chooses between a fast valid leaf and a slow
// chain of n sequential calls; with cancellation the chain is revoked as
// soon as the leaf answers.
func chooseChainTask(chainLen int) Task {
	return func(f *Frame, arg Value) Value {
		n := arg.(int)
		switch {
		case n == -1: // root
			v, ok := f.Choose(func(v Value) bool { return v.(int) > 0 }, 0, chainLen)
			if !ok {
				return -1
			}
			return v.(int)
		case n == 0: // fast valid leaf
			return 1
		default: // slow chain
			return f.CallSync(n - 1)
		}
	}
}

func totalFrames(net *mapping.Network) (started, cancelled, live int64) {
	for pid := 0; pid < net.Virtual().Size(); pid++ {
		rt := net.App(sched.PID(pid)).(*Runtime)
		started += rt.FramesStarted()
		cancelled += rt.FramesCancelled()
		live += int64(rt.LiveFrames())
	}
	return
}

// phasedTask is a losing branch with *sequential phases*: the worker runs
// `phases` rounds of CallSync, spawning one leaf per round. Killing the
// worker while it is parked between phases genuinely saves the remaining
// rounds — the case where speculative cancellation pays off. (A frame that
// spawns all its work on arrival cannot be saved: in a one-hop-per-step
// machine the cancel wave travels exactly as fast as the work frontier and
// always arrives after the children were spawned.)
func phasedTask(phases int) Task {
	return func(f *Frame, arg Value) Value {
		n := arg.(int)
		switch {
		case n == -1: // root: fast valid leaf vs slow phased worker
			v, ok := f.Choose(func(v Value) bool { return v.(int) > 0 }, 0, -2)
			if !ok {
				return -1
			}
			return v.(int)
		case n == 0: // fast valid leaf
			return 1
		case n == -2: // phased worker: sequential leaf rounds, invalid result
			total := 0
			for p := 0; p < phases; p++ {
				total += f.CallSync(100 + p).(int)
			}
			return -total
		default: // leaf of a phase
			return n
		}
	}
}

func TestCancelRevokesPhasedWorker(t *testing.T) {
	const phases = 30
	run := func(cancel bool) (result int, started, cancelled int64) {
		factory := AppFactory(phasedTask(phases))
		if cancel {
			factory = AppFactoryOpts(phasedTask(phases), Options{CancelSpeculative: true})
		}
		net, err := mapping.New(mapping.Config{
			Physical: mesh.MustTorus(8, 8),
			Mapper:   mapping.NewRoundRobin(),
			Factory:  factory,
			Seed:     1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := net.Trigger(0, -1); err != nil {
			t.Fatal(err)
		}
		stats := net.Run()
		if !stats.Quiescent {
			t.Fatal("run did not quiesce")
		}
		v, ok := net.App(0).(*Runtime).RootResult()
		if !ok {
			t.Fatal("no root result")
		}
		s, c, live := totalFrames(net)
		if live != 0 {
			t.Fatalf("%d live frames after quiescence", live)
		}
		return v.(int), s, c
	}

	plainResult, plainStarted, plainCancelled := run(false)
	cancelResult, cancelStarted, cancelCancelled := run(true)

	if plainResult != 1 || cancelResult != 1 {
		t.Fatalf("results: plain %d, cancel %d, want 1", plainResult, cancelResult)
	}
	if plainCancelled != 0 {
		t.Errorf("plain run cancelled %d frames, want 0", plainCancelled)
	}
	if cancelCancelled == 0 {
		t.Error("cancelling run revoked no frames")
	}
	// Plain: root + leaf + worker + 30 phase leaves. Cancelled: the worker
	// dies while parked on an early phase, saving most leaf rounds.
	if plainStarted < phases {
		t.Errorf("plain run started %d frames, expected >= %d", plainStarted, phases)
	}
	if cancelStarted >= plainStarted/2 {
		t.Errorf("cancellation saved too little: %d vs %d frames", cancelStarted, plainStarted)
	}
}

func TestCancelPropagatesDownSubtrees(t *testing.T) {
	// The losing branch is itself a fork-join tree; cancellation must chase
	// every level. Tree depth 6 => 2^6 frames if uncancelled.
	task := func(f *Frame, arg Value) Value {
		n := arg.(int)
		switch {
		case n == -1: // root: choose between instant leaf and big tree
			v, ok := f.Choose(func(v Value) bool { return v.(int) >= 0 }, 0, 6)
			if !ok {
				return -1
			}
			return v.(int)
		case n <= 0:
			return 0
		default:
			f.Call(n - 1)
			f.Call(n - 1)
			vs := f.Sync()
			return vs[0].(int) + vs[1].(int)
		}
	}
	net := newCancelNet(t, mesh.MustTorus(6, 6), mapping.NewRoundRobin(), task)
	if err := net.Trigger(0, -1); err != nil {
		t.Fatal(err)
	}
	stats := net.Run()
	if !stats.Quiescent {
		t.Fatal("run did not quiesce")
	}
	if _, ok := net.App(0).(*Runtime).RootResult(); !ok {
		t.Fatal("no root result")
	}
	started, cancelled, live := totalFrames(net)
	if live != 0 {
		t.Fatalf("%d live frames leaked", live)
	}
	// The cancel wave kills a frame at every tree level, recursively — but
	// it cannot *outrun* the unfolding frontier (both travel one hop per
	// step), so the full 127-frame tree is still started. What cancellation
	// guarantees is that a large share of those frames is reaped without
	// producing reply traffic.
	if cancelled < 30 {
		t.Errorf("only %d frames cancelled; expected the wave to reap most of the tree", cancelled)
	}
	if started < 120 {
		t.Errorf("started %d frames; the frontier outruns cancellation, full tree expected", started)
	}
}

func TestCancelDoesNotChangeVerdicts(t *testing.T) {
	// Identical results with and without cancellation across mappers.
	for _, mf := range []mapping.Factory{mapping.NewRoundRobin(), mapping.NewLeastBusy()} {
		for _, chain := range []int{0, 5, 25} {
			net := newCancelNet(t, mesh.MustTorus(5, 5), mf, chooseChainTask(chain))
			if err := net.Trigger(0, -1); err != nil {
				t.Fatal(err)
			}
			if stats := net.Run(); !stats.Quiescent {
				t.Fatal("run did not quiesce")
			}
			v, ok := net.App(0).(*Runtime).RootResult()
			if !ok || v.(int) != 1 {
				t.Errorf("chain %d: result %v (ok=%v), want 1", chain, v, ok)
			}
		}
	}
}

func TestCancelAllInvalidStillYieldsNull(t *testing.T) {
	// When no branch is valid, nothing resolves early, nothing is
	// cancelled, and Choose reports !ok.
	task := func(f *Frame, arg Value) Value {
		n := arg.(int)
		if n >= 0 {
			return n
		}
		_, ok := f.Choose(func(v Value) bool { return v.(int) > 10 }, 1, 2, 3)
		return ok
	}
	net := newCancelNet(t, mesh.MustTorus(4, 4), mapping.NewRoundRobin(), task)
	if err := net.Trigger(0, -1); err != nil {
		t.Fatal(err)
	}
	net.Run()
	v, ok := net.App(0).(*Runtime).RootResult()
	if !ok || v.(bool) != false {
		t.Errorf("result %v (ok=%v), want false", v, ok)
	}
	_, cancelled, _ := totalFrames(net)
	if cancelled != 0 {
		t.Errorf("cancelled %d frames with no resolution", cancelled)
	}
}

func TestCancelNoGoroutineLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		net := newCancelNet(t, mesh.MustTorus(6, 6), mapping.NewLeastBusy(), chooseChainTask(60))
		if err := net.Trigger(0, -1); err != nil {
			t.Fatal(err)
		}
		if stats := net.Run(); !stats.Quiescent {
			t.Fatal("run did not quiesce")
		}
	}
	// No grace period: a frame's coroutine is gone by the time next() or
	// stop() returns, so the count is back as soon as Run is.
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked: before=%d after=%d", before, after)
	}
}

func TestCancelRaceWithInFlightReply(t *testing.T) {
	// Chain length 1 makes the losing branch finish almost immediately, so
	// the Cancel frequently crosses an in-flight Reply; the runtime must
	// drop the orphan reply silently. Run many seeds to exercise timings.
	for seed := int64(0); seed < 8; seed++ {
		net, err := mapping.New(mapping.Config{
			Physical: mesh.MustTorus(4, 4),
			Mapper:   mapping.NewRandom(),
			Factory:  AppFactoryOpts(chooseChainTask(1), Options{CancelSpeculative: true}),
			Seed:     seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := net.Trigger(0, -1); err != nil {
			t.Fatal(err)
		}
		if stats := net.Run(); !stats.Quiescent {
			t.Fatalf("seed %d: run did not quiesce", seed)
		}
		v, ok := net.App(0).(*Runtime).RootResult()
		if !ok || v.(int) != 1 {
			t.Errorf("seed %d: result %v (ok=%v), want 1", seed, v, ok)
		}
	}
}
