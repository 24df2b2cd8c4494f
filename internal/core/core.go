// Package core assembles the five-layer solver stack of Tarawneh et al.
// (P2S2 2017) into a single Machine: a simulated hyperspace computer
// (layer 1), node-level scheduling (layer 2), ticketed mapping (layer 3),
// the coroutine-based recursion runtime (layer 4) and a user task
// (layer 5). It is the primary entry point of the library: configure a
// Machine, Run a task, read the result and the activity metrics.
//
// Every machine runs the paper's semantics: each node activates, round-robin,
// every message waiting when a step begins, and a choice lets its losing
// branches run to completion and ignores their results.
//
// A machine is an immutable skeleton, derived from (Topology, ProcsPerNode)
// alone and shared read-only through a small bounded cache, plus run state
// built per machine in a few slabs; see skeleton.go. A machine on a cached
// skeleton runs exactly as one built from scratch.
package core

import (
	"context"
	"fmt"

	"hypersolve/internal/mapping"
	"hypersolve/internal/mesh"
	"hypersolve/internal/metrics"
	"hypersolve/internal/parallel"
	"hypersolve/internal/recursion"
	"hypersolve/internal/sched"
	"hypersolve/internal/simulator"
)

// Config selects one implementation per layer, mirroring the paper's vision
// of assembling applications from a repertoire of per-layer modules
// (Section VII). Each field is set here and only here: New passes Topology
// and ProcsPerNode to the skeleton, Mapper and Task to layers 3 and 4, and
// Link, Seed, MaxSteps, RecordSeries and Observer as one simulator.Config
// that reaches layer 1 unchanged (Seed also seeds the mappers).
type Config struct {
	// Topology is the layer-1 interconnect (required).
	Topology mesh.Topology
	// Mapper is the layer-3 mapping algorithm factory (required). It is a
	// plain value: any number of machines, concurrent or not, may share one.
	Mapper mapping.Factory
	// Task is the layer-5 recursive function (required).
	Task recursion.Task

	// ProcsPerNode configures layer 2: logical processes per core
	// (default 1), scheduled round-robin with no per-step activation cap.
	ProcsPerNode int

	// Observer, if non-nil, receives the layer-1 after-step callback. The
	// solve service installs its throttled progress publisher here so
	// running jobs can be watched live; the hook costs nothing measurable
	// when nil.
	Observer simulator.Observer

	// Seed drives all randomness in the stack.
	Seed int64
	// MaxSteps bounds the simulation; values below 1 take the simulator's
	// default of 4M steps.
	MaxSteps int64
	// RecordSeries enables the per-step interconnect activity trace.
	RecordSeries bool

	// Link is the layer-1 link model: the queue discipline and the
	// optional extensions (latency, bandwidth, bounded queues, loss +
	// reliability). Its zero value is the paper's machine.
	Link simulator.LinkConfig
}

// Result is the outcome of one Machine run.
type Result struct {
	// Value is the root task's return value; OK is false when the run hit
	// MaxSteps before the root completed.
	Value recursion.Value
	OK    bool

	// Stats are the raw layer-1 statistics.
	Stats simulator.Stats

	// ComputationTime is the paper's performance denominator: simulation
	// steps between the first and last messages.
	ComputationTime int64
	// Performance is 1/ComputationTime, the paper's Figure 4 y-axis.
	Performance float64

	// QueuedSeries is the interconnect activity trace (Figure 5 top),
	// present when Config.RecordSeries was set.
	QueuedSeries metrics.Series
	// ReceivedPerProcess is the node activity metric (Figure 5 bottom):
	// layer-3 messages delivered to each process.
	ReceivedPerProcess []int64
	// FramesPerProcess counts task invocations evaluated by each process.
	FramesPerProcess []int64
}

// Machine is a configured five-layer stack, ready to run one computation.
type Machine struct {
	cfg Config
	net *mapping.Network
}

// New validates the configuration and builds the stack on the skeleton of
// (Topology, ProcsPerNode), which it takes from the skeleton cache or builds
// and caches there (see skeleton.go).
func New(cfg Config) (*Machine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return newMachine(cfg, skeletonOf(cfg.Topology, cfg.ProcsPerNode))
}

func (cfg Config) validate() error {
	if cfg.Topology == nil {
		return fmt.Errorf("core: Config.Topology is nil")
	}
	if cfg.Mapper == nil {
		return fmt.Errorf("core: Config.Mapper is nil")
	}
	if cfg.Task == nil {
		return fmt.Errorf("core: Config.Task is nil")
	}
	return nil
}

// newMachine builds the run state of a validated configuration on sk, which
// it only reads.
func newMachine(cfg Config, sk *mapping.Skeleton) (*Machine, error) {
	net, err := sk.New(cfg.Mapper, recursion.AppFactory(cfg.Task), simulator.Config{
		LinkConfig:   cfg.Link,
		MaxSteps:     cfg.MaxSteps,
		Seed:         cfg.Seed,
		RecordSeries: cfg.RecordSeries,
		Observer:     cfg.Observer,
	})
	if err != nil {
		return nil, err
	}
	return &Machine{cfg: cfg, net: net}, nil
}

// Network exposes the underlying layer-3 network for advanced inspection.
func (m *Machine) Network() *mapping.Network { return m.net }

// Run triggers the task with the given argument at the root process
// (PID 0), runs the simulation to quiescence (or MaxSteps) and collects the
// result.
// A Machine instance runs once; build a new one for another run.
func (m *Machine) Run(arg recursion.Value) (Result, error) {
	return m.RunContext(context.Background(), arg)
}

// RunContext is Run with cooperative cancellation and deadline enforcement:
// the layer-1 step loop polls ctx once every simulator.CancelSliceSteps
// steps and abandons the run (unwinding all outstanding frames) when the
// context is cancelled or past its deadline. The returned error wraps
// ctx.Err() and the partial Result carries the statistics accumulated up to
// the interruption. Runs that complete are bit-identical to Run's — the
// poll only ever aborts the loop, never reorders it — so determinism of
// completed runs is preserved at any cancellation pressure.
//
// A task that panics fails the run, not the process: frames run on worker
// coroutines resumed on this goroutine, so the panic surfaces here, every
// outstanding frame is unwound, the worker pool is drained and the panic
// value is returned as an error.
func (m *Machine) RunContext(ctx context.Context, arg recursion.Value) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			m.abort()
			res, err = Result{}, fmt.Errorf("core: task panicked: %v", r)
		}
	}()
	if err := m.net.Trigger(0, arg); err != nil {
		return Result{}, err
	}
	stats := m.net.RunContext(ctx)

	res = Result{
		Stats:           stats,
		ComputationTime: stats.ComputationTime(),
		QueuedSeries:    metrics.Series(stats.QueuedSeries),
	}
	if res.ComputationTime > 0 {
		res.Performance = 1 / float64(res.ComputationTime)
	}
	res.ReceivedPerProcess = m.net.ReceivedPerProcess()

	size := m.net.Virtual().Size()
	res.FramesPerProcess = make([]int64, size)
	for pid := 0; pid < size; pid++ {
		rt := m.net.App(sched.PID(pid)).(*recursion.Runtime)
		res.FramesPerProcess[pid] = rt.FramesStarted()
	}

	rootRT := m.net.App(0).(*recursion.Runtime)
	res.Value, res.OK = rootRT.RootResult()

	if !stats.Quiescent {
		m.abort()
	}
	if stats.Interrupted {
		return res, fmt.Errorf("core: run interrupted: %w", context.Cause(ctx))
	}
	return res, nil
}

// abort unwinds the outstanding frames of an abandoned run and ends the
// recursion layer's pooled workers, so no coroutine outlives the run.
func (m *Machine) abort() {
	for pid := 0; pid < m.net.Virtual().Size(); pid++ {
		m.net.App(sched.PID(pid)).(*recursion.Runtime).Abort()
	}
}

// NodeHeatmap folds the per-process received counts onto the physical
// topology's first two embedding dimensions — the paper's Figure 5 node
// activity heatmap. Topologies with more dimensions are projected onto the
// first two; 1D topologies produce a single row.
func (m *Machine) NodeHeatmap(res Result) *metrics.Heatmap {
	topo := m.cfg.Topology
	dims := topo.Dims()
	w := dims[0]
	h := 1
	if len(dims) > 1 {
		h = dims[1]
	}
	hm := metrics.NewHeatmap(w, h)
	procs := m.cfg.ProcsPerNode
	if procs < 1 {
		procs = 1
	}
	for pid, count := range res.ReceivedPerProcess {
		node := mesh.NodeID(pid / procs)
		c := topo.Coords(node)
		x := c[0]
		y := 0
		if len(c) > 1 {
			y = c[1]
		}
		hm.Add(x, y, float64(count))
	}
	return hm
}

// RunOnce is a convenience wrapper: build a Machine from cfg, run arg, and
// return the result.
func RunOnce(cfg Config, arg recursion.Value) (Result, error) {
	m, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	return m.Run(arg)
}

// RunSuite simulates one machine per argument, deriving run i's seed as
// cfg.Seed + i and fanning the runs out over runtime.GOMAXPROCS(0) workers
// (a single machine always runs on one goroutine). Results are collected by
// argument index, so the output is bit-identical at every GOMAXPROCS.
func RunSuite(cfg Config, args []recursion.Value) ([]Result, error) {
	out := make([]Result, len(args))
	err := parallel.ForEach(len(args), 0, func(i int) error {
		c := cfg
		c.Seed = cfg.Seed + int64(i)
		res, err := RunOnce(c, args[i])
		if err != nil {
			return fmt.Errorf("core: suite run %d: %w", i, err)
		}
		out[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
