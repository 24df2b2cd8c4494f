package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"hypersolve/internal/apps"
	"hypersolve/internal/mapping"
	"hypersolve/internal/mesh"
	"hypersolve/internal/recursion"
	"hypersolve/internal/sat"
	"hypersolve/internal/simulator"
)

func TestMachineRunsSum(t *testing.T) {
	res, err := RunOnce(Config{
		Topology:     mesh.MustTorus(5, 5),
		Mapper:       mapping.NewRoundRobin(),
		Task:         apps.SumTask(),
		RecordSeries: true,
	}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || res.Value.(int) != 55 {
		t.Fatalf("sum(10) = %v (ok=%v)", res.Value, res.OK)
	}
	if res.ComputationTime <= 0 {
		t.Error("ComputationTime should be positive")
	}
	if res.Performance <= 0 || res.Performance > 1 {
		t.Errorf("Performance = %v", res.Performance)
	}
	if len(res.QueuedSeries) == 0 {
		t.Error("QueuedSeries missing despite RecordSeries")
	}
	var frames int64
	for _, f := range res.FramesPerProcess {
		frames += f
	}
	if frames != 11 { // sum(10) evaluates frames for 10..0
		t.Errorf("total frames = %d, want 11", frames)
	}
}

func TestMachineSolvesSAT(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	f := sat.Random3SAT(rng, 12, 50)
	want := sat.Solve(f, sat.Options{}).Status
	res, err := RunOnce(Config{
		Topology: mesh.MustTorus(4, 4),
		Mapper:   mapping.NewLeastBusy(),
		Task:     sat.Task(sat.FirstUnassigned),
	}, sat.NewProblem(f))
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatal("no result")
	}
	out := res.Value.(sat.Outcome)
	if out.Status != want {
		t.Errorf("distributed %v != sequential %v", out.Status, want)
	}
	if out.Status == sat.SAT && !sat.Verify(f, out.Assignment) {
		t.Error("assignment does not verify")
	}
}

func TestMachineConfigValidation(t *testing.T) {
	base := Config{
		Topology: mesh.MustRing(4),
		Mapper:   mapping.NewRoundRobin(),
		Task:     apps.SumTask(),
	}
	for _, mutate := range []func(*Config){
		func(c *Config) { c.Topology = nil },
		func(c *Config) { c.Mapper = nil },
		func(c *Config) { c.Task = nil },
	} {
		cfg := base
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("expected config error for %+v", cfg)
		}
	}
}

func TestMachineMaxStepsAbortsCleanly(t *testing.T) {
	infinite := func(f *recursion.Frame, arg recursion.Value) recursion.Value {
		return f.CallSync(arg)
	}
	res, err := RunOnce(Config{
		Topology: mesh.MustTorus(4, 4),
		Mapper:   mapping.NewRoundRobin(),
		Task:     infinite,
		MaxSteps: 40,
	}, "spin")
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Error("infinite task should not produce a result")
	}
	if res.Stats.Quiescent {
		t.Error("run should not be quiescent")
	}
}

func TestMachineRootPlacement(t *testing.T) {
	res, err := RunOnce(Config{
		Topology: mesh.MustTorus(4, 4),
		Mapper:   mapping.NewRoundRobin(),
		Task:     apps.SumTask(),
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || res.Value.(int) != 15 {
		t.Fatalf("sum(5) = %v (ok=%v)", res.Value, res.OK)
	}
	if res.FramesPerProcess[0] == 0 {
		t.Error("root process evaluated no frames")
	}
}

func TestMachineProcsPerNode(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		res, err := RunOnce(Config{
			Topology:     mesh.MustTorus(3, 3),
			Mapper:       mapping.NewRoundRobin(),
			Task:         apps.FibTask(),
			ProcsPerNode: procs,
		}, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK || res.Value.(int) != 55 {
			t.Errorf("procs=%d: fib(10) = %v (ok=%v)", procs, res.Value, res.OK)
		}
		if len(res.FramesPerProcess) != 9*procs {
			t.Errorf("procs=%d: FramesPerProcess length %d", procs, len(res.FramesPerProcess))
		}
	}
}

func TestNodeHeatmapAccumulates(t *testing.T) {
	m, err := New(Config{
		Topology: mesh.MustTorus(4, 4),
		Mapper:   mapping.NewRoundRobin(),
		Task:     apps.FibTask(),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(12)
	if err != nil {
		t.Fatal(err)
	}
	hm := m.NodeHeatmap(res)
	if hm.W != 4 || hm.H != 4 {
		t.Fatalf("heatmap dims %dx%d", hm.W, hm.H)
	}
	var total, wantTotal float64
	for _, v := range hm.Cells {
		total += v
	}
	for _, c := range res.ReceivedPerProcess {
		wantTotal += float64(c)
	}
	if total != wantTotal {
		t.Errorf("heatmap total %v != received total %v", total, wantTotal)
	}
	if hm.Max() == 0 {
		t.Error("heatmap is empty")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() Result {
		res, err := RunOnce(Config{
			Topology:     mesh.MustTorus(4, 4),
			Mapper:       mapping.NewLeastBusy(),
			Task:         apps.FibTask(),
			Seed:         99,
			RecordSeries: true,
		}, 11)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.ComputationTime != b.ComputationTime {
		t.Errorf("computation times differ: %d vs %d", a.ComputationTime, b.ComputationTime)
	}
	if a.Stats.TotalSent != b.Stats.TotalSent {
		t.Errorf("message counts differ")
	}
	for i := range a.QueuedSeries {
		if a.QueuedSeries[i] != b.QueuedSeries[i] {
			t.Fatalf("series diverge at %d", i)
		}
	}
}

func TestLinkModelPassThrough(t *testing.T) {
	// With latency 3 the same workload takes longer.
	base := Config{
		Topology: mesh.MustTorus(4, 4),
		Mapper:   mapping.NewRoundRobin(),
		Task:     apps.SumTask(),
	}
	fast, err := RunOnce(base, 8)
	if err != nil {
		t.Fatal(err)
	}
	slow := base
	slow.Link.LinkLatency = 3
	slowRes, err := RunOnce(slow, 8)
	if err != nil {
		t.Fatal(err)
	}
	if slowRes.ComputationTime <= fast.ComputationTime {
		t.Errorf("latency 3 (%d steps) not slower than latency 1 (%d steps)",
			slowRes.ComputationTime, fast.ComputationTime)
	}
}

// slowConfig builds a machine whose run spans billions of cheap steps: a
// linear sum chain over very high-latency links on a tiny ring. The point is
// a run slow enough to cancel, so a no-op observer is attached: without one
// the simulator skips each idle latency gap in O(1) and finishes in
// milliseconds; with one it walks the gap step by step (~20 s uncancelled).
func slowConfig() Config {
	return Config{
		Topology: mesh.MustRing(4),
		Mapper:   mapping.NewRoundRobin(),
		Task:     apps.SumTask(),
		Link:     simulator.LinkConfig{LinkLatency: 5_000_000},
		MaxSteps: 1 << 40,
		Observer: noopObserver{},
	}
}

type noopObserver struct{}

func (noopObserver) AfterStep(int64, int) {}

func TestRunContextCancellation(t *testing.T) {
	m, err := New(slowConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := m.RunContext(ctx, 500)
	if err == nil {
		t.Fatal("cancelled run returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in the chain", err)
	}
	if !res.Stats.Interrupted || res.Stats.Quiescent {
		t.Fatalf("stats = %+v, want interrupted, not quiescent", res.Stats)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, want well under the full run", elapsed)
	}
	if res.OK {
		t.Fatal("interrupted run reported OK")
	}
}

func TestRunContextDeadline(t *testing.T) {
	m, err := New(slowConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	res, err := m.RunContext(ctx, 500)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded in the chain", err)
	}
	if !res.Stats.Interrupted {
		t.Fatalf("stats = %+v, want interrupted", res.Stats)
	}
}

// TestRunContextCompletedRunsIdentical is the determinism guarantee: a run
// that completes under an (unfired) cancellable context is bit-identical to
// a plain Run of the same config and seed.
func TestRunContextCompletedRunsIdentical(t *testing.T) {
	cfg := Config{
		Topology:     mesh.MustTorus(5, 5),
		Mapper:       mapping.NewLeastBusy(),
		Task:         apps.SumTask(),
		Seed:         11,
		RecordSeries: true,
	}
	plain, err := RunOnce(cfg, 40)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	viaCtx, err := m.RunContext(ctx, 40)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, viaCtx) {
		t.Fatalf("RunContext result differs from Run:\nrun:  %+v\nctx:  %+v", plain, viaCtx)
	}
}

// A task that panics deep in the call tree must fail the run with an error,
// on the caller's goroutine, and leave no frame coroutine behind.
func TestTaskPanicFailsRun(t *testing.T) {
	task := func(f *recursion.Frame, arg recursion.Value) recursion.Value {
		switch n := arg.(int); {
		case n == 2:
			panic("boom in a grandchild")
		case n >= 10 && n < 40: // a chain still parked on its subcalls when the panic hits
			return f.CallSync(n + 1)
		case n < 2:
			f.Call(10)
			f.Call(n + 1)
			return len(f.Sync())
		}
		return 0
	}
	before := runtime.NumGoroutine()
	res, err := RunOnce(Config{Topology: mesh.MustTorus(4, 4), Mapper: mapping.NewRoundRobin(), Task: task}, 0)
	if err == nil || !strings.Contains(err.Error(), "core: task panicked: boom in a grandchild") {
		t.Fatalf("err = %v, want the task's panic as an error", err)
	}
	if res.OK {
		t.Error("panicked run reported OK")
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked: before=%d after=%d", before, after)
	}
}

// Frames run on pooled worker coroutines that a machine has no Close to
// release, so however a run ends, the goroutine count is back at its
// baseline the moment the call returns.
func TestRunLeavesNoGoroutine(t *testing.T) {
	// The root forks fib(10) and an endless chain. By the time the chain is
	// cut short the fib tree has come and gone, so the pool holds idle
	// workers as well as parked ones. At panicAt the chain panics instead.
	grow := func(panicAt int) recursion.Task {
		return func(f *recursion.Frame, arg recursion.Value) recursion.Value {
			n := arg.(int)
			switch {
			case n < 0:
				f.Call(10)
				f.Call(100)
				return len(f.Sync())
			case n == panicAt:
				panic("boom")
			case n >= 100:
				return f.CallSync(n + 1)
			case n < 2:
				return n
			}
			f.Call(n - 1)
			f.Call(n - 2)
			vs := f.Sync()
			return vs[0].(int) + vs[1].(int)
		}
	}
	// pick resolves on a leaf while the losing branch is a parked chain,
	// which then runs to completion.
	pick := func(f *recursion.Frame, arg recursion.Value) recursion.Value {
		n := arg.(int)
		switch {
		case n < 0:
			v, _ := f.Choose(func(v recursion.Value) bool { return v.(int) == 0 }, 0, 40)
			return v
		case n == 0:
			return 0
		}
		return f.CallSync(n - 1)
	}
	base := Config{Topology: mesh.MustTorus(4, 4), Mapper: mapping.NewRoundRobin(), Seed: 1}
	cases := []struct {
		name    string
		cfg     func(Config) Config
		arg     int
		wantErr string
		check   func(*testing.T, Result)
	}{
		{"quiescent", func(c Config) Config { c.Task = apps.FibTask(); return c }, 12, "", func(t *testing.T, r Result) {
			if !r.OK || r.Value.(int) != 144 {
				t.Errorf("fib(12) = %v (ok=%v)", r.Value, r.OK)
			}
		}},
		{"max-steps", func(c Config) Config { c.Task, c.MaxSteps = grow(1<<30), 60; return c }, -1, "", func(t *testing.T, r Result) {
			if r.OK || r.Stats.Quiescent {
				t.Error("an endless task finished")
			}
		}},
		{"task-panic", func(c Config) Config { c.Task = grow(160); return c }, -1, "core: task panicked: boom", nil},
		{"running-loser", func(c Config) Config { c.Task = pick; return c }, -1, "", func(t *testing.T, r Result) {
			var frames int64
			for _, f := range r.FramesPerProcess {
				frames += f
			}
			// Root, leaf and the whole 41-frame chain.
			if !r.OK || r.Value.(int) != 0 || frames != 43 {
				t.Errorf("value %v (ok=%v) over %d frames, want 0 over 43", r.Value, r.OK, frames)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			res, err := RunOnce(tc.cfg(base), tc.arg)
			after := runtime.NumGoroutine()
			if after > before {
				t.Errorf("goroutines leaked: before=%d after=%d", before, after)
			}
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, res)
		})
	}
}
