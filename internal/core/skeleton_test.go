package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"hypersolve/internal/apps"
	"hypersolve/internal/mapping"
	"hypersolve/internal/mesh"
	"hypersolve/internal/recursion"
	"hypersolve/internal/sat"
	"hypersolve/internal/simulator"
)

// shareRow is one machine of the sharing matrix: a topology, given both as
// the spec New's callers parse and as a constructor that builds a private
// copy, with its slots per node and link model, and a task under a mapper.
type shareRow struct {
	name   string
	spec   string
	fresh  func() mesh.Topology
	procs  int
	link   simulator.LinkConfig
	mapper string
	task   func() (recursion.Task, recursion.Value)
}

// config returns the row's machine on the shared topology of its spec.
func (r shareRow) config(t testing.TB, seed int64) (Config, recursion.Value) {
	t.Helper()
	mapper, err := mapping.Registry(r.mapper)
	if err != nil {
		t.Fatal(err)
	}
	task, arg := r.task()
	return Config{
		Topology: mesh.MustParse(r.spec), Mapper: mapper, Task: task, ProcsPerNode: r.procs,
		Seed: seed, RecordSeries: true, Link: r.link,
	}, arg
}

// shareRows is the matrix: fib, queens and knapsack on each topology of
// the lib-forkjoin rotation, uf20 on the service's machine, and one row
// each for link queues and for reliable links over lossy ones.
func shareRows(t testing.TB) []shareRow {
	rng := rand.New(rand.NewSource(3))
	items := make([]apps.Item, 8)
	capacity := 0
	for i := range items {
		items[i] = apps.Item{Weight: 1 + rng.Intn(20), Value: 1 + rng.Intn(40)}
		capacity += items[i].Weight
	}
	capacity /= 2
	suite, err := sat.GenerateSuite(sat.UF20Params(1))
	if err != nil {
		t.Fatal(err)
	}
	fib := func() (recursion.Task, recursion.Value) { return apps.FibTask(), 10 }
	tasks := []struct {
		name, mapper string
		task         func() (recursion.Task, recursion.Value)
	}{
		{"fib", "rr", fib},
		{"queens", "lbn", func() (recursion.Task, recursion.Value) {
			return apps.QueensTask(3), apps.QueensState{N: 6}
		}},
		{"knapsack", "weighted", func() (recursion.Task, recursion.Value) {
			return apps.KnapsackTask(3), apps.NewKnapsack(items, capacity)
		}},
	}
	topos := []struct {
		spec    string
		fresh   func() mesh.Topology
		procs   int
		latency int64
	}{
		{"torus:14x14", func() mesh.Topology { return mesh.MustTorus(14, 14) }, 1, 0},
		{"torus:24x24", func() mesh.Topology { return mesh.MustTorus(24, 24) }, 1, 400},
		{"hypercube:8", func() mesh.Topology { return mesh.MustHypercube(8) }, 2, 0},
		{"torus:6x6x6", func() mesh.Topology { return mesh.MustTorus(6, 6, 6) }, 1, 0},
	}
	var rows []shareRow
	for _, tp := range topos {
		for _, tk := range tasks {
			rows = append(rows, shareRow{
				name: tk.name + "/" + tp.spec, spec: tp.spec, fresh: tp.fresh, procs: tp.procs,
				link: simulator.LinkConfig{LinkLatency: tp.latency}, mapper: tk.mapper, task: tk.task,
			})
		}
	}
	torus14 := topos[0]
	return append(rows,
		shareRow{name: "uf20/torus:14x14", spec: torus14.spec, fresh: torus14.fresh, mapper: "lbn",
			task: func() (recursion.Task, recursion.Value) {
				return sat.Task(sat.FirstUnassigned), sat.NewProblem(suite[0])
			}},
		shareRow{name: "link-queues/torus:6x6x6", spec: topos[3].spec, fresh: topos[3].fresh, mapper: "rr", task: fib,
			link: simulator.LinkConfig{QueueModel: simulator.LinkQueues, QueueCap: 2}},
		shareRow{name: "lossy-reliable/torus:14x14", spec: torus14.spec, fresh: torus14.fresh, mapper: "random", task: fib,
			link: simulator.LinkConfig{LossRate: 0.05, Reliable: true}},
	)
}

// outcome is what a run shows: its result and error, and the per-node
// activations of layer 2, which the result does not carry.
type outcome struct {
	Res         Result
	Err         error
	Activations []int64
}

// runMachine builds cfg on sk, or through New (the cache) when sk is nil,
// and runs arg on it. A build error is the outcome's error.
func runMachine(ctx context.Context, cfg Config, sk *mapping.Skeleton, arg recursion.Value) outcome {
	var m *Machine
	var err error
	if sk == nil {
		m, err = New(cfg)
	} else {
		m, err = newMachine(cfg, sk)
	}
	if err != nil {
		return outcome{Err: err}
	}
	res, err := m.RunContext(ctx, arg)
	return outcome{Res: res, Err: err, Activations: m.Network().Cluster().ActivationsPerNode()}
}

// freshOutcome runs the row on a private topology and a skeleton built for
// this run alone.
func freshOutcome(t testing.TB, r shareRow, seed int64) outcome {
	t.Helper()
	cfg, arg := r.config(t, seed)
	cfg.Topology = r.fresh()
	return runMachine(context.Background(), cfg, mapping.NewSkeleton(cfg.Topology, cfg.ProcsPerNode), arg)
}

// cancelAt cancels its context once the run passes a step; the simulator
// notices at its next poll.
type cancelAt struct {
	step   int64
	cancel context.CancelFunc
}

func (c cancelAt) AfterStep(step int64, _ int) {
	if step == c.step {
		c.cancel()
	}
}

// interlude runs, on the shared skeleton of cfg's machine, a different spec
// and then three runs that end early: at MaxSteps, by cancellation and by a
// task panic, each leaving frames parked.
func interlude(t *testing.T, cfg Config) {
	t.Helper()
	other := cfg
	other.Task, other.Mapper, other.Seed, other.Link = apps.SumTask(), mapping.NewStaggeredRoundRobin(), cfg.Seed+1, simulator.LinkConfig{}
	if o := runMachine(context.Background(), other, nil, 30); o.Err != nil || o.Res.Value != 465 {
		t.Fatalf("the interlude's sum(30) = %v, err %v", o.Res.Value, o.Err)
	}

	capped := cfg
	capped.Task, capped.MaxSteps = apps.SumTask(), 20
	if o := runMachine(context.Background(), capped, nil, 200); o.Res.OK || o.Res.Stats.Quiescent {
		t.Fatalf("a sum capped at 20 steps finished: %+v", o.Res.Stats)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelled := cfg
	cancelled.Task, cancelled.Link = apps.SumTask(), simulator.LinkConfig{LinkLatency: 50}
	cancelled.Observer = cancelAt{step: 10, cancel: cancel}
	if o := runMachine(ctx, cancelled, nil, 300); o.Err == nil || !o.Res.Stats.Interrupted {
		t.Fatalf("the cancelled run was not interrupted: err %v, %+v", o.Err, o.Res.Stats)
	}

	panicky := cfg
	panicky.Task = func(f *recursion.Frame, arg recursion.Value) recursion.Value {
		n := arg.(int)
		if n == 3 {
			panic("boom")
		}
		f.Call(n + 1)
		f.Call(n + 1)
		return len(f.Sync())
	}
	if o := runMachine(context.Background(), panicky, nil, 0); o.Err == nil {
		t.Fatal("the panicking task did not fail its run")
	}
}

// TestSharedSkeletonMatchesFresh pins that a machine built on a cached
// skeleton is indistinguishable from one whose topology and skeleton were
// built for it alone: every row's outcome is DeepEqual to the fresh one, the
// first time on the shared skeleton and again after a different spec and
// three aborted runs used it, and after each the skeleton itself still
// equals a fresh build.
func TestSharedSkeletonMatchesFresh(t *testing.T) {
	for _, r := range shareRows(t) {
		t.Run(r.name, func(t *testing.T) {
			want := freshOutcome(t, r, 9)
			if want.Err != nil || !want.Res.OK {
				t.Fatalf("fresh run: err %v, ok %v", want.Err, want.Res.OK)
			}
			cfg, arg := r.config(t, 9)
			sk := skeletonOf(cfg.Topology, cfg.ProcsPerNode)
			unchanged := func(when string) {
				t.Helper()
				if again := skeletonOf(cfg.Topology, cfg.ProcsPerNode); again != sk {
					t.Fatalf("%s: the runs did not share one cached skeleton", when)
				}
				if !reflect.DeepEqual(sk, mapping.NewSkeleton(r.fresh(), cfg.ProcsPerNode)) {
					t.Fatalf("%s: the shared skeleton no longer equals a fresh build", when)
				}
			}
			if got := runMachine(context.Background(), cfg, nil, arg); !reflect.DeepEqual(got, want) {
				t.Fatalf("first run on the shared skeleton differs from a fresh build:\ngot  %+v\nwant %+v", got, want)
			}
			unchanged("after the first run")
			interlude(t, cfg)
			if got := runMachine(context.Background(), cfg, nil, arg); !reflect.DeepEqual(got, want) {
				t.Fatalf("run after the interlude differs from a fresh build:\ngot  %+v\nwant %+v", got, want)
			}
			unchanged("after the interlude")
		})
	}
}

// TestSharedSkeletonConcurrentRuns runs every row from four goroutines at
// once, each on the shared skeletons and each with its own seed; every
// outcome must equal a fresh serial build's. Under -race this is the check
// that no layer writes what the skeleton shares.
func TestSharedSkeletonConcurrentRuns(t *testing.T) {
	rows := shareRows(t)
	const workers = 4
	want := make([][]outcome, workers)
	for w := range want {
		for _, r := range rows {
			o := freshOutcome(t, r, int64(w))
			if o.Err != nil || !o.Res.OK {
				t.Fatalf("%s, seed %d: fresh run: err %v, ok %v", r.name, w, o.Err, o.Res.OK)
			}
			want[w] = append(want[w], o)
		}
	}
	got := make([][]outcome, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		cfgs, args := make([]Config, len(rows)), make([]recursion.Value, len(rows))
		for i, r := range rows {
			cfgs[i], args[i] = r.config(t, int64(w))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rows {
				got[w] = append(got[w], runMachine(context.Background(), cfgs[i], nil, args[i]))
			}
		}()
	}
	wg.Wait()
	for w := range want {
		for i, r := range rows {
			if !reflect.DeepEqual(got[w][i], want[w][i]) {
				t.Errorf("worker %d, %s: shared-skeleton outcome differs from a fresh build", w, r.name)
			}
		}
	}
}

// TestSkeletonCacheBounds pins both bounds: the least recently used
// skeleton is evicted past maxCachedSkeletons, and a skeleton heavier than
// the whole budget is built but never retained.
func TestSkeletonCacheBounds(t *testing.T) {
	topos := make([]mesh.Topology, maxCachedSkeletons+1)
	first := make([]*mapping.Skeleton, len(topos))
	for i := range topos {
		topos[i] = mesh.MustRing(3 + i)
		first[i] = skeletonOf(topos[i], 1)
	}
	heavy := mesh.MustFullyConnected(300) // 300 processes, 89 700 links
	if w := mesh.Weight(heavy); w <= maxCachedWeight {
		t.Fatalf("full:300 weighs %d, want it over the budget of %d", w, maxCachedWeight)
	}
	if skeletonOf(heavy, 1) == skeletonOf(heavy, 1) {
		t.Error("a skeleton over the budget was cached")
	}
	// The heavy skeleton evicted nothing; the newest maxCachedSkeletons
	// are still cached, from the most recently used down, and the oldest
	// is gone.
	for i := len(topos) - 1; i >= 1; i-- {
		if skeletonOf(topos[i], 1) != first[i] {
			t.Errorf("skeleton %d was evicted, want it cached", i)
		}
	}
	if skeletonOf(topos[0], 1) == first[0] {
		t.Error("the least recently used skeleton was not evicted")
	}
}

// tagged is a caller-defined topology whose type is not comparable.
type tagged struct {
	mesh.Topology
	tags []string
}

// boxed is a comparable topology type whose value may hold one that is not.
type boxed struct {
	mesh.Topology
	extra any
}

// TestSkeletonOfNonComparableTopology pins that a topology that cannot be a
// map key still builds and runs, uncached, and runs like the topology it
// wraps.
func TestSkeletonOfNonComparableTopology(t *testing.T) {
	base := mesh.MustTorus(5, 5)
	cfg := Config{Topology: base, Mapper: mapping.NewLeastBusy(), Task: apps.FibTask(), Seed: 4}
	want := runMachine(context.Background(), cfg, mapping.NewSkeleton(base, 1), 9)
	for _, topo := range []mesh.Topology{tagged{base, []string{"a"}}, boxed{base, []int{1}}} {
		t.Run(fmt.Sprintf("%T", topo), func(t *testing.T) {
			if skeletonOf(topo, 1) == skeletonOf(topo, 1) {
				t.Error("a non-comparable topology was cached")
			}
			c := cfg
			c.Topology = topo
			if got := runMachine(context.Background(), c, nil, 9); !reflect.DeepEqual(got, want) {
				t.Errorf("run differs from the wrapped topology's:\ngot  %+v\nwant %+v", got, want)
			}
		})
	}
}
