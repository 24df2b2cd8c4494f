// Package hypersolve is a framework for developing combinatorial solvers on
// massively parallel machines with regular topologies ("hyperspace
// computers"), reproducing the multi-layer programming model of
//
//	G. Tarawneh et al., "Programming Model to Develop Supercomputer
//	Combinatorial Solvers", P2S2 workshop, ICPP 2017.
//	https://doi.org/10.1109/ICPPW.2017.35
//
// The stack has five layers, each replaceable independently:
//
//	layer 1  message passing   deterministic time-stepped simulator
//	layer 2  scheduling        logical processes on physical cores
//	layer 3  mapping           destination-free sends, ticketed replies,
//	                           round-robin / least-busy-neighbour placement
//	layer 4  recursion         fork-join tasks on pooled coroutines (the paper's yield)
//	layer 5  application       DPLL SAT, N-Queens, knapsack, or your own
//
// Quick start:
//
//	task := hypersolve.SumTask() // sum(n) = n + sum(n-1), paper Listing 3
//	res, err := hypersolve.Run(hypersolve.Config{
//		Topology: hypersolve.MustTorus(14, 14),
//		Mapper:   hypersolve.LeastBusyMapper(),
//		Task:     task,
//	}, 10)
//	// res.Value == 55, res.ComputationTime = simulation steps used
//
// This package covers building and evaluating solvers: machines, topologies,
// mappers, tasks and the bundled layer-5 solvers, plus the job store the
// benchmark drives. The solve service stack is reached through the binaries
// (cmd/hypersolved, cmd/hyperctl) and their HTTP API (docs/API.md).
package hypersolve

import (
	"hypersolve/internal/apps"
	"hypersolve/internal/core"
	"hypersolve/internal/mapping"
	"hypersolve/internal/mesh"
	"hypersolve/internal/recursion"
	"hypersolve/internal/sat"
	"hypersolve/internal/sched"
	"hypersolve/internal/simulator"
	"hypersolve/internal/store"
)

// ---------------------------------------------------------------------------
// Core machine
// ---------------------------------------------------------------------------

// Config assembles a machine: one implementation per layer. See
// core.Config for field documentation.
type Config = core.Config

// Result reports a run's outcome and activity metrics.
type Result = core.Result

// Machine is a configured five-layer stack.
//
// Beyond Run, a Machine supports context-aware execution via RunContext:
//
//	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
//	defer cancel()
//	res, err := machine.RunContext(ctx, arg)
//
// The layer-1 step loop polls the context once every
// simulator.CancelSliceSteps simulation steps, so cancellation (or deadline
// expiry) interrupts a run within one slice; the returned error wraps
// ctx's cause and the partial Result carries the statistics accumulated up
// to the interruption (Result.Stats.Interrupted is set). Runs that complete
// are bit-identical to Run's at any cancellation pressure — the poll only
// ever aborts the step loop, never reorders it. The solve service
// (cmd/hypersolved) builds its per-job cancellation and deadline
// enforcement on this primitive.
type Machine = core.Machine

// NewMachine validates a configuration and builds the stack.
func NewMachine(cfg Config) (*Machine, error) { return core.New(cfg) }

// Run builds a machine from cfg, triggers the task with arg at the root
// process and runs the simulation to completion.
func Run(cfg Config, arg Value) (Result, error) { return core.RunOnce(cfg, arg) }

// RunSuite simulates one machine per argument (run i uses seed cfg.Seed+i),
// fanning independent runs over runtime.GOMAXPROCS(0) worker goroutines, so
// GOMAXPROCS sets the width. Results are collected by argument index: the
// output is bit-identical at every width.
func RunSuite(cfg Config, args []Value) ([]Result, error) { return core.RunSuite(cfg, args) }

// ---------------------------------------------------------------------------
// Topologies (layer 1 substrate)
// ---------------------------------------------------------------------------

// Topology describes a regular interconnect.
type Topology = mesh.Topology

// NewTorus builds an n-dimensional torus, e.g. NewTorus(14, 14).
func NewTorus(dims ...int) (Topology, error) { return mesh.NewTorus(dims...) }

// MustTorus is NewTorus that panics on error.
func MustTorus(dims ...int) Topology { return mesh.MustTorus(dims...) }

// NewFullyConnected builds a complete graph on size nodes.
func NewFullyConnected(size int) (Topology, error) { return mesh.NewFullyConnected(size) }

// ParseTopology builds a topology from a spec string such as "torus:14x14",
// "hypercube:7" or "full:256". The same spec returns one shared immutable
// value (a small bounded cache keeps it), so machines built on it also share
// its skeleton; callers must not modify it.
func ParseTopology(spec string) (Topology, error) { return mesh.Parse(spec) }

// ---------------------------------------------------------------------------
// Mapping algorithms (layer 3)
// ---------------------------------------------------------------------------

// MapperFactory builds a per-node mapping algorithm instance.
type MapperFactory = mapping.Factory

// RoundRobinMapper returns the paper's static mapper: sub-problems go to
// adjacent cores in circular order.
func RoundRobinMapper() MapperFactory { return mapping.NewRoundRobin() }

// LeastBusyMapper returns the paper's adaptive mapper: sub-problems go to
// the neighbour with the smallest piggybacked activity count.
func LeastBusyMapper() MapperFactory { return mapping.NewLeastBusy() }

// RandomMapper returns a uniformly random mapper (deterministic per seed).
func RandomMapper() MapperFactory { return mapping.NewRandom() }

// WeightedMapper returns the hint-aware adaptive mapper implementing the
// paper's cross-layer optimization (Section III-B3).
func WeightedMapper(alpha float64) MapperFactory { return mapping.NewWeighted(alpha) }

// ParseMapper resolves a mapper spec string: "rr", "lbn", "random",
// "weighted" or "weighted:<alpha>".
func ParseMapper(spec string) (MapperFactory, error) { return mapping.Registry(spec) }

// ---------------------------------------------------------------------------
// Recursion layer (layer 4)
// ---------------------------------------------------------------------------

// Task is a user-level recursive function evaluated across the mesh.
type Task = recursion.Task

// Frame is the handle a task uses to issue subcalls (Call/Sync/Choose).
type Frame = recursion.Frame

// Value is the type carried through calls and results.
type Value = recursion.Value

// PID identifies a logical process on the machine.
type PID = sched.PID

// ---------------------------------------------------------------------------
// SAT (layer 5, the paper's evaluation workload)
// ---------------------------------------------------------------------------

// Formula is a CNF formula; Clause and Lit are its components.
type (
	Formula    = sat.Formula
	Clause     = sat.Clause
	Lit        = sat.Lit
	Assignment = sat.Assignment
	SATOutcome = sat.Outcome
	Heuristic  = sat.Heuristic
)

// SAT solver verdicts.
const (
	StatusSAT   = sat.SAT
	StatusUNSAT = sat.UNSAT
)

// SAT branching heuristics (see sat.Heuristic).
const (
	HeuristicFirst = sat.FirstUnassigned
	HeuristicFreq  = sat.MostFrequent
	HeuristicJW    = sat.JeroslowWang
	HeuristicDLIS  = sat.DLIS
)

// SATOptions configures the sequential DPLL baseline.
type SATOptions = sat.Options

// SATTask returns the distributed DPLL solver task (paper Listing 4).
func SATTask(h Heuristic) Task { return sat.Task(h) }

// NewSATProblem wraps a formula for use as a SATTask argument.
func NewSATProblem(f Formula) *sat.Problem { return sat.NewProblem(f) }

// SolveSAT runs the sequential DPLL baseline.
func SolveSAT(f Formula, opts sat.Options) sat.Result { return sat.Solve(f, opts) }

// VerifySAT checks an assignment against a formula.
func VerifySAT(f Formula, a Assignment) bool { return sat.Verify(f, a) }

// GenerateSATSuite builds a deterministic benchmark suite; see
// sat.SuiteParams and sat.UF20Params.
func GenerateSATSuite(p sat.SuiteParams) ([]Formula, error) { return sat.GenerateSuite(p) }

// UF20Params returns the paper's benchmark parameters: 20 satisfiable
// uniform random 3-SAT instances, 20 variables, 91 clauses.
func UF20Params(seed int64) sat.SuiteParams { return sat.UF20Params(seed) }

// ---------------------------------------------------------------------------
// Other bundled solvers (layer 5)
// ---------------------------------------------------------------------------

// SumTask returns the paper's Listing 3: sum(n) by delegated recursion.
func SumTask() Task { return apps.SumTask() }

// FibTask returns the two-way fork-join Fibonacci task.
func FibTask() Task { return apps.FibTask() }

// QueensTask returns the N-Queens counting solver; cutoff is the
// sequential grain size.
func QueensTask(cutoff int) Task { return apps.QueensTask(cutoff) }

// QueensState is the N-Queens sub-problem payload; pass QueensState{N: n}
// as the root argument.
type QueensState = apps.QueensState

// QueensSeq counts N-Queens solutions sequentially (the validation oracle).
func QueensSeq(n int) int { return apps.QueensSeq(n) }

// KnapsackTask returns the 0/1 knapsack branch-and-bound solver.
func KnapsackTask(cutoff int) Task { return apps.KnapsackTask(cutoff) }

// KnapsackItem is one 0/1 knapsack item.
type KnapsackItem = apps.Item

// NewKnapsack builds a root knapsack problem from items and capacity.
func NewKnapsack(items []KnapsackItem, capacity int) apps.KnapsackProblem {
	return apps.NewKnapsack(items, capacity)
}

// KnapsackDP solves knapsack by dynamic programming (the validation oracle).
func KnapsackDP(items []KnapsackItem, capacity int) int { return apps.KnapsackDP(items, capacity) }

// ---------------------------------------------------------------------------
// Simulator access
// ---------------------------------------------------------------------------

// SimulatorStats are the raw layer-1 run statistics.
type SimulatorStats = simulator.Stats

// LinkConfig is the layer-1 link model: the queue discipline and the
// optional extensions (latency, bandwidth, bounded queues, loss +
// reliability). Set it as Config.Link; its zero value is the paper's machine.
type LinkConfig = simulator.LinkConfig

// Queue disciplines for LinkConfig.QueueModel: one inbox per node (the
// paper-reproduction default) or one queue per directed link (ablation).
const (
	NodeQueues = simulator.NodeQueues
	LinkQueues = simulator.LinkQueues
)

// StaggeredRoundRobinMapper returns round-robin with per-node phase
// offsets, avoiding lockstep herding on dense topologies.
func StaggeredRoundRobinMapper() MapperFactory { return mapping.NewStaggeredRoundRobin() }

// GlobalRoundRobinMapper returns the idealised globally coordinated mapper
// used for the fully-connected baseline; it is not physically realisable
// on a hyperspace machine.
func GlobalRoundRobinMapper() MapperFactory { return mapping.NewGlobalRoundRobin() }

// ---------------------------------------------------------------------------
// Job store (what the benchmark drives in-process)
// ---------------------------------------------------------------------------

// JobStore is the pluggable persistence backend of the solve service: the
// in-memory map, or the durable WAL-journal + snapshot file backend.
type JobStore = store.Store

// JobDone is the terminal state of a job that completed successfully.
const JobDone = store.StateDone

// FileJobStoreConfig shapes a durable job store (data directory, retention,
// fsync policy, snapshot compaction cadence).
type FileJobStoreConfig = store.FileConfig

// NewMemoryJobStore returns the in-process backend retaining at most
// history terminal jobs (<= 0 = 4096). This is what the solve service uses
// when its config names no store.
func NewMemoryJobStore(history int) JobStore { return store.NewMemory(history) }

// OpenFileJobStore opens (or creates) the durable backend: every job
// transition is appended to a JSONL write-ahead journal and periodically
// compacted into a snapshot (written off the transition path by a
// background compactor). A solve service started on a recovered store
// re-runs whatever the previous process left queued or running; spec+seed
// determinism makes the re-run bit-identical.
func OpenFileJobStore(cfg FileJobStoreConfig) (JobStore, error) { return store.Open(cfg) }
