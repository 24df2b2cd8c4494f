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
// This package is a stable facade over the internal implementation
// packages; everything needed to build and evaluate solvers is re-exported
// here.
package hypersolve

import (
	"io"
	"net/http"

	"hypersolve/internal/apps"
	"hypersolve/internal/cluster"
	"hypersolve/internal/core"
	"hypersolve/internal/mapping"
	"hypersolve/internal/mesh"
	"hypersolve/internal/metrics"
	"hypersolve/internal/recursion"
	"hypersolve/internal/sat"
	"hypersolve/internal/sched"
	"hypersolve/internal/service"
	"hypersolve/internal/simulator"
	"hypersolve/internal/store"
	"hypersolve/internal/telemetry"
	"hypersolve/internal/tracelog"
	"hypersolve/internal/version"
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
// (NewSolveService, cmd/hypersolved) builds its per-job cancellation and
// deadline enforcement on this primitive.
type Machine = core.Machine

// NewMachine validates a configuration and builds the stack.
func NewMachine(cfg Config) (*Machine, error) { return core.New(cfg) }

// Run builds a machine from cfg, triggers the task with arg at the root
// process and runs the simulation to completion.
func Run(cfg Config, arg Value) (Result, error) { return core.RunOnce(cfg, arg) }

// RunSuite simulates one machine per argument (run i uses seed cfg.Seed+i),
// fanning independent runs over cfg.Parallelism worker goroutines. Results
// are collected by argument index: the output is bit-identical at every
// parallelism level.
func RunSuite(cfg Config, args []Value) ([]Result, error) { return core.RunSuite(cfg, args) }

// ---------------------------------------------------------------------------
// Topologies (layer 1 substrate)
// ---------------------------------------------------------------------------

// Topology describes a regular interconnect.
type Topology = mesh.Topology

// NodeID identifies a node within a topology.
type NodeID = mesh.NodeID

// NewTorus builds an n-dimensional torus, e.g. NewTorus(14, 14).
func NewTorus(dims ...int) (Topology, error) { return mesh.NewTorus(dims...) }

// MustTorus is NewTorus that panics on error.
func MustTorus(dims ...int) Topology { return mesh.MustTorus(dims...) }

// NewGrid builds an n-dimensional grid (no wraparound).
func NewGrid(dims ...int) (Topology, error) { return mesh.NewGrid(dims...) }

// NewHypercube builds a 2^dim-node binary hypercube.
func NewHypercube(dim int) (Topology, error) { return mesh.NewHypercube(dim) }

// NewFullyConnected builds a complete graph on size nodes.
func NewFullyConnected(size int) (Topology, error) { return mesh.NewFullyConnected(size) }

// NewRing builds a cycle of size nodes.
func NewRing(size int) (Topology, error) { return mesh.NewRing(size) }

// ParseTopology builds a topology from a spec string such as "torus:14x14",
// "hypercube:7" or "full:256".
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

// HintedCall pairs a subcall argument with a mapping hint.
type HintedCall = recursion.HintedCall

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
	SATStatus  = sat.Status
	SATOutcome = sat.Outcome
	Heuristic  = sat.Heuristic
)

// SAT solver verdicts.
const (
	StatusUnknown = sat.Unknown
	StatusSAT     = sat.SAT
	StatusUNSAT   = sat.UNSAT
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
// Metrics & simulator access
// ---------------------------------------------------------------------------

// Series is a per-step activity time series.
type Series = metrics.Series

// Heatmap is a 2D per-node activity grid.
type Heatmap = metrics.Heatmap

// SimulatorStats are the raw layer-1 run statistics.
type SimulatorStats = simulator.Stats

// LinkConfig carries the optional layer-1 link-model extensions (latency,
// bandwidth, bounded queues, loss + reliability); set it as Config.Link.
type LinkConfig = simulator.Config

// Queue disciplines for LinkConfig.QueueModel: one inbox per node (the
// paper-reproduction default) or one queue per directed link (ablation).
const (
	NodeQueues = simulator.NodeQueues
	LinkQueues = simulator.LinkQueues
)

// ParseTopologyMust is ParseTopology that panics on error, for tests and
// examples.
func ParseTopologyMust(spec string) Topology { return mesh.MustParse(spec) }

// StaggeredRoundRobinMapper returns round-robin with per-node phase
// offsets, avoiding lockstep herding on dense topologies.
func StaggeredRoundRobinMapper() MapperFactory { return mapping.NewStaggeredRoundRobin() }

// GlobalRoundRobinMapper returns the idealised globally coordinated mapper
// used for the fully-connected baseline; it is not physically realisable
// on a hyperspace machine.
func GlobalRoundRobinMapper() MapperFactory { return mapping.NewGlobalRoundRobin() }

// FramesCancelled is reported in Result when Config.CancelSpeculative is
// set; see core.Result. The recursion-layer options type is re-exported for
// direct layer composition.
type RecursionOptions = recursion.Options

// ---------------------------------------------------------------------------
// Solve service (cmd/hypersolved, cmd/hyperctl)
// ---------------------------------------------------------------------------

// JobSpec describes one solve job submitted to the service: the problem
// kind and its parameters plus the machine to run it on.
type JobSpec = service.JobSpec

// JobID identifies a job on the wire: a bare sequence number on a single
// daemon, shard-prefixed ("s2-17") behind a cluster router. See
// ParseJobID.
type JobID = service.JobID

// ParseJobID parses either wire form of a job ID ("17" or "s2-17").
func ParseJobID(s string) (JobID, error) { return service.ParseJobID(s) }

// LinkSpec is the JSON shape of JobSpec's layer-1 link-model extensions.
type LinkSpec = service.LinkSpec

// Job is a tracked solve: spec, lifecycle state, timestamps and result.
type Job = service.Job

// JobAttempt is one strategy's run inside a portfolio race (see
// JobSpec.Portfolio): the job's spec executed under one mapping strategy in
// its own cancellation context.
type JobAttempt = service.Attempt

// JobResult is the JSON result payload of a completed job.
type JobResult = service.JobResult

// JobState is a job's lifecycle stage: queued, running, done, failed or
// cancelled.
type JobState = service.State

// Job lifecycle states.
const (
	JobQueued    = service.StateQueued
	JobRunning   = service.StateRunning
	JobDone      = service.StateDone
	JobFailed    = service.StateFailed
	JobCancelled = service.StateCancelled
)

// SolveService is a long-lived multi-tenant solve backend: a bounded FIFO
// admission queue feeding a worker pool of simulated machines, with per-job
// cancellation and deadline enforcement.
type SolveService = service.Service

// SolveServiceConfig sizes a SolveService (queue depth, worker count) and
// selects its persistence backend (Store; nil = in-memory).
type SolveServiceConfig = service.Config

// NewSolveService starts a solve service; Close stops it.
func NewSolveService(cfg SolveServiceConfig) *SolveService { return service.New(cfg) }

// NewSolveHandler wraps a service in its HTTP JSON API (the surface served
// by cmd/hypersolved).
func NewSolveHandler(s *SolveService) http.Handler { return service.NewHandler(s) }

// SolveClient is the Go client of a hypersolved server, as used by
// cmd/hyperctl. Submissions bounced by a full queue (HTTP 429) are retried
// with jittered exponential backoff (see SubmitRetry / Client.Retry).
type SolveClient = service.Client

// SubmitRetry is SolveClient's backoff policy for queue-full rejections.
type SubmitRetry = service.Retry

// JobProgress is a throttled snapshot of a running job's execution, as
// streamed by the service's SSE endpoint (GET /v1/jobs/{id}/events),
// SolveClient.Watch and SolveService.Subscribe. The last snapshot of every
// stream carries a terminal state.
type JobProgress = service.Progress

// JobTrace is a job's span timeline as served by GET /v1/jobs/{id}/trace
// and rendered by `hyperctl trace`: the job's identity and state plus
// every recorded span (compile → admission → queue → run, with a
// journal-append child under admission, an instant requeued span after
// crash recovery or failover re-runs, and a replica_apply span stamped by
// standbys). Trace IDs follow the W3C traceparent header end-to-end, so
// a caller-supplied trace continues through router and shard.
type JobTrace = service.JobTrace

// TraceSpan is one interval in a JobTrace: name, parent, start/end
// instants, duration and optional attributes and step annotations.
type TraceSpan = tracelog.Span

// TraceTimeline is the raw span list of one trace (JobTrace embeds it).
type TraceTimeline = tracelog.Timeline

// TraceContext is a W3C trace-context pair (trace ID + parent span ID);
// parse one from an inbound traceparent header with ParseTraceparent or
// mint one with NewTraceContext to root a trace at the caller.
type TraceContext = tracelog.TraceContext

// NewTraceContext mints a fresh trace context (random trace + span IDs).
func NewTraceContext() TraceContext { return tracelog.NewTraceContext() }

// ParseTraceparent parses a W3C traceparent header value.
func ParseTraceparent(s string) (TraceContext, bool) { return tracelog.ParseTraceparent(s) }

// StructuredLogger is the dependency-free leveled JSON/text logger used
// across the fleet (hypersolved -log-level / -log-format); hand one to
// SolveNodeConfig.Logger or ClusterConfig.Logger to capture replication
// and failover decisions. A nil *StructuredLogger is a no-op.
type StructuredLogger = tracelog.Logger

// NewStructuredLogger builds a logger writing one record per line to w.
func NewStructuredLogger(w io.Writer, level tracelog.Level, format tracelog.Format) *StructuredLogger {
	return tracelog.New(w, level, format)
}

// BuildVersion reports the build identity stamped into the binary at link
// time ("dev (unknown)" for plain `go build`).
func BuildVersion() string { return version.String() }

// JobStore is the pluggable persistence backend of a SolveService: the
// in-memory map, or the durable WAL-journal + snapshot file backend.
type JobStore = store.Store

// FileJobStoreConfig shapes a durable job store (data directory, retention,
// fsync policy, snapshot compaction cadence).
type FileJobStoreConfig = store.FileConfig

// NewMemoryJobStore returns the in-process backend retaining at most
// history terminal jobs (<= 0 = 4096). This is what a SolveService uses
// when its config names no store.
func NewMemoryJobStore(history int) JobStore { return store.NewMemory(history) }

// OpenFileJobStore opens (or creates) the durable backend: every job
// transition is appended to a JSONL write-ahead journal and periodically
// compacted into a snapshot (written off the transition path by a
// background compactor). A SolveService started on a recovered store
// re-runs whatever the previous process left queued or running; spec+seed
// determinism makes the re-run bit-identical.
func OpenFileJobStore(cfg FileJobStoreConfig) (JobStore, error) { return store.Open(cfg) }

// ---------------------------------------------------------------------------
// Sharded solve cluster (hypersolved -route)
// ---------------------------------------------------------------------------

// ClusterRouter fronts several hypersolved daemons as one sharded solve
// service: submissions are placed on a consistent-hash ring, job IDs encode
// their shard, listings fan out and merge, dead backends degrade the
// cluster instead of failing it, and shards paired with standbys fail over
// automatically. See internal/cluster and docs/ARCHITECTURE.md.
type ClusterRouter = cluster.Router

// ClusterConfig shapes a ClusterRouter: backend base URLs (shard i+1 =
// Backends[i], paired with Standbys[i]), probe cadence and failover
// thresholds, transport and retry policy.
type ClusterConfig = cluster.Config

// ClusterHealth is the /v1/cluster report: the fleet verdict plus one
// BackendHealth row per shard.
type ClusterHealth = cluster.Health

// BackendHealth is one backend's row in the cluster report.
type BackendHealth = cluster.BackendHealth

// NewClusterRouter builds a router over the configured backends and starts
// its background health re-probe loop; Close stops it.
func NewClusterRouter(cfg ClusterConfig) (*ClusterRouter, error) { return cluster.New(cfg) }

// NewClusterHandler wraps a router in the solve service's HTTP JSON API
// plus GET /v1/cluster (the surface served by hypersolved -route).
func NewClusterHandler(r *ClusterRouter) http.Handler { return cluster.NewHandler(r) }

// ClusterMember names one shard's endpoints for Router.ApplyMembership (the
// hypersolved -route-config / SIGHUP reload path).
type ClusterMember = cluster.MemberSpec

// ---------------------------------------------------------------------------
// Replication & failover (hypersolved -data-dir / -follow)
// ---------------------------------------------------------------------------

// SolveNode is one member of a replicated shard: a durable solve daemon
// that serves its WAL as a replication feed (primary), or tails another
// node's feed into a read-only replica store (standby). Promote and Demote
// flip the role in place; the cluster router drives both during failover.
// See internal/service.Node and docs/ARCHITECTURE.md.
type SolveNode = service.Node

// SolveNodeConfig shapes a SolveNode: store directory, service sizing, and
// the optional feed source that makes it a standby.
type SolveNodeConfig = service.NodeConfig

// ReplicationStatus is a node's GET /v1/replication/status payload: role,
// fencing epoch, local and source LSN, and replication lag.
type ReplicationStatus = service.ReplicationStatus

// NewSolveNode opens the node's durable store and starts it in the
// configured role; Close stops it.
func NewSolveNode(cfg SolveNodeConfig) (*SolveNode, error) { return service.NewNode(cfg) }

// TelemetryRegistry is the process-wide metrics registry behind every
// GET /metrics endpoint: counters, gauges and histograms with atomic
// hot-path updates, encoded in Prometheus text exposition format. Hand
// one registry to the service, store and node configs to scrape a whole
// process as one snapshot. See internal/telemetry and docs/API.md.
type TelemetryRegistry = telemetry.Registry

// TelemetryFamily is one named metric family in a scrape — the unit the
// cluster router parses, relabels and merges when aggregating backend
// scrapes.
type TelemetryFamily = telemetry.Family

// NewTelemetryRegistry returns an empty registry.
func NewTelemetryRegistry() *TelemetryRegistry { return telemetry.NewRegistry() }
