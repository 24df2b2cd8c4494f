package recursion

import (
	"runtime"
	"testing"

	"hypersolve/internal/mapping"
	"hypersolve/internal/mesh"
)

// poolOf returns the worker pool a network's runtimes share.
func poolOf(net *mapping.Network) *pool { return net.App(0).(*Runtime).pool }

func TestWorkersAreReusedAcrossFrames(t *testing.T) {
	before := runtime.NumGoroutine()
	net := newNet(t, mesh.MustTorus(14, 14), mapping.NewRoundRobin(), fibTask)
	got, ok := runRoot(t, net, 15)
	if !ok || got.(int) != 610 {
		t.Fatalf("fib(15) = %v (ok=%v), want 610", got, ok)
	}
	frames, _ := totalFrames(net)
	if frames != 1973 {
		t.Fatalf("fib(15) ran %d frames, want 1973", frames)
	}
	// Only a parked frame occupies a worker, and half the tree is leaves:
	// 500 coroutines when this was written, against one per frame before.
	p := poolOf(net)
	t.Logf("%d coroutines for %d frames", p.created, frames)
	if p.created > 700 {
		t.Errorf("%d coroutines created for %d frames, want at most 700", p.created, frames)
	}
	if p.live != 0 || len(p.idle) != 0 {
		t.Errorf("after quiescence the pool holds %d live frames and %d idle workers, want none", p.live, len(p.idle))
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked: before=%d after=%d", before, after)
	}
}

// A Frame is recycled when its invocation is over, but what the invocation
// produced is not: a task may return the very slice Sync gave it, or keep it
// (or, uselessly, its Frame), and no later frame's results may land in that
// memory.
func TestSyncSliceOutlivesItsFrame(t *testing.T) {
	var kept [][]Value
	var stale []*Frame
	task := func(f *Frame, arg Value) Value {
		n := arg.(int)
		if n < 2 {
			return n
		}
		f.Call(n - 1)
		f.Call(n - 2)
		vs := f.Sync()
		kept, stale = append(kept, vs), append(stale, f)
		return vs // the parent receives the Sync slice itself
	}
	var total func(v Value) int
	total = func(v Value) int {
		if n, leaf := v.(int); leaf {
			return n
		}
		sum := 0
		for _, e := range v.([]Value) {
			sum += total(e)
		}
		return sum
	}
	net := newNet(t, mesh.MustTorus(5, 5), mapping.NewRoundRobin(), task)
	got, ok := runRoot(t, net, 12)
	if !ok || total(got) != 144 {
		t.Fatalf("fib(12) = %v (ok=%v), want nested slices summing to 144", got, ok)
	}
	seen := map[*Value]bool{}
	for _, vs := range kept {
		if seen[&vs[0]] {
			t.Fatal("two frames were given the same Sync slice")
		}
		seen[&vs[0]] = true
	}
	if len(stale) != len(kept) {
		t.Fatalf("kept %d frames for %d slices", len(stale), len(kept))
	}
}
