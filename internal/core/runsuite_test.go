package core

import (
	"reflect"
	"runtime"
	"testing"

	"hypersolve/internal/apps"
	"hypersolve/internal/mapping"
	"hypersolve/internal/mesh"
	"hypersolve/internal/recursion"
)

// withProcs runs fn with GOMAXPROCS, RunSuite's worker count, set to p.
func withProcs(p int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
	fn()
}

func suiteArgs(n int) []recursion.Value {
	args := make([]recursion.Value, n)
	for i := range args {
		args[i] = 10 + i
	}
	return args
}

// Machines of one suite share the Config value and nothing else — not the
// mapper's state and not the recursion layer's worker pool — so the fan-out
// level cannot show in a result. fib keeps hundreds of pooled workers busy
// per machine; sum keeps one chain parked.
func TestRunSuiteMatchesSerialRuns(t *testing.T) {
	for _, task := range []recursion.Task{apps.SumTask(), apps.FibTask()} {
		cfg := Config{
			Topology: mesh.MustTorus(4, 4),
			Mapper:   mapping.NewLeastBusy(),
			Task:     task,
			Seed:     3,
		}
		args := suiteArgs(6)
		var want []Result
		for i, a := range args {
			c := cfg
			c.Seed = cfg.Seed + int64(i)
			res, err := RunOnce(c, a)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, res)
		}
		for _, p := range []int{1, 4} {
			var got []Result
			var err error
			withProcs(p, func() { got, err = RunSuite(cfg, args) })
			if err != nil {
				t.Fatalf("GOMAXPROCS %d: %v", p, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("GOMAXPROCS %d: suite results differ from per-run RunOnce", p)
			}
		}
	}
}

// TestSharedMapperValueRepeats is the central contract for mappers: a
// Config is a value, so running it twice gives the same result. The
// idealised mapper is the one that needs machine-wide knowledge; when that
// knowledge lived in its factory, the second run of one Config on fib(9)
// took 26 steps where the first took 25.
func TestSharedMapperValueRepeats(t *testing.T) {
	topo, err := mesh.NewFullyConnected(16)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Topology: topo, Mapper: mapping.NewGlobalRoundRobin(), Task: apps.FibTask(), Seed: 1}
	for n := 9; n <= 13; n++ {
		first, err := RunOnce(cfg, n)
		if err != nil {
			t.Fatal(err)
		}
		second, err := RunOnce(cfg, n)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Errorf("fib(%d): second run of the same Config took %d steps, first %d",
				n, second.ComputationTime, first.ComputationTime)
		}
	}
}

// TestRunSuiteSharedIdealMapperDeterminism runs the idealised mapper, one
// factory value shared by every machine of the suite, at several
// GOMAXPROCS widths: the results must not depend on which machines run
// concurrently. Run under -race this also proves the suite is free of
// cross-machine data races.
func TestRunSuiteSharedIdealMapperDeterminism(t *testing.T) {
	topo, err := mesh.NewFullyConnected(16)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Topology: topo,
		Mapper:   mapping.NewGlobalRoundRobin(),
		Task:     apps.SumTask(),
		Seed:     1,
	}
	args := suiteArgs(8)
	var serial []Result
	withProcs(1, func() { serial, err = RunSuite(cfg, args) })
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{4, 8} {
		var got []Result
		withProcs(p, func() { got, err = RunSuite(cfg, args) })
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", p, err)
		}
		if !reflect.DeepEqual(serial, got) {
			t.Errorf("GOMAXPROCS %d: ideal-mapper suite differs from serial", p)
		}
	}
}

func TestRunSuiteEmptyAndError(t *testing.T) {
	cfg := Config{
		Topology: mesh.MustTorus(3, 3),
		Mapper:   mapping.NewRoundRobin(),
		Task:     apps.SumTask(),
	}
	out, err := RunSuite(cfg, nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty suite: out=%v err=%v", out, err)
	}
	bad := cfg
	bad.Topology = nil
	if _, err := RunSuite(bad, suiteArgs(3)); err == nil {
		t.Error("expected config error to surface from RunSuite")
	}
}
