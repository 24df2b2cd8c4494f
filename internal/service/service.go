package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hypersolve/internal/core"
	"hypersolve/internal/metrics"
	"hypersolve/internal/parallel"
	"hypersolve/internal/sat"
	"hypersolve/internal/simulator"
	"hypersolve/internal/store"
	"hypersolve/internal/telemetry"
	"hypersolve/internal/tracelog"
	"hypersolve/internal/version"
)

// State is a job's lifecycle stage (defined by the persistence layer; the
// service re-exports it so API consumers need only this package).
type State = store.State

const (
	StateQueued    = store.StateQueued
	StateRunning   = store.StateRunning
	StateDone      = store.StateDone
	StateFailed    = store.StateFailed
	StateCancelled = store.StateCancelled
)

// ParseState validates a wire-format state name (used by the HTTP list
// filter and hyperctl's -state flag).
func ParseState(name string) (State, error) { return store.ParseState(name) }

// SATResult is the SAT-specific slice of a job result: the verdict, the
// witness assignment as DIMACS-style literals, and whether the service
// verified the assignment against the formula.
type SATResult struct {
	Status     string `json:"status"`
	Assignment []int  `json:"assignment,omitempty"`
	Verified   bool   `json:"verified,omitempty"`
}

// JobResult is the JSON payload of a completed job: the root value, the
// paper's metrics, the raw layer-1 statistics, and the optional activity
// snapshots requested by the spec.
type JobResult struct {
	// OK is false when the run hit MaxSteps before the root completed.
	OK bool `json:"ok"`
	// Value is the root task's return value for the integer-valued kinds
	// (sum, fib, queens, knapsack, unbalanced). It round-trips through the
	// store's JSON encoding, so in-process readers see float64 for numeric
	// values, exactly as HTTP clients do.
	Value any `json:"value,omitempty"`
	// SAT carries the verdict for sat/dimacs jobs.
	SAT *SATResult `json:"sat,omitempty"`

	ComputationTime int64           `json:"computation_time"`
	Performance     float64         `json:"performance"`
	Stats           simulator.Stats `json:"stats"`

	// Series is the interconnect activity trace (spec.RecordSeries).
	Series metrics.Series `json:"series,omitempty"`
	// Heatmap is the node activity grid (spec.Heatmap).
	Heatmap *metrics.Heatmap `json:"heatmap,omitempty"`
}

// Job is one tracked solve: the spec, its lifecycle state and timestamps,
// and — once terminal — the result or failure reason. Jobs are plain value
// records decoded from the store; the service hands out copies, never
// aliases.
type Job struct {
	// ID is the job's wire identifier: a bare sequence number on a single
	// daemon, shard-prefixed ("s2-17") when the job is served through a
	// cluster router.
	ID    JobID   `json:"id"`
	Spec  JobSpec `json:"spec"`
	State State   `json:"state"`

	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at,omitzero"`
	FinishedAt  time.Time `json:"finished_at,omitzero"`

	Error  string     `json:"error,omitempty"`
	Result *JobResult `json:"result,omitempty"`

	// Winner is the mapping strategy whose attempt won a portfolio race
	// (empty for solo jobs and unfinished or lost races); Attempts is the
	// race's per-strategy ledger in launch order. Both are decoded from
	// the store's attempt records, so they survive restarts and failover.
	Winner   string    `json:"winner,omitempty"`
	Attempts []Attempt `json:"attempts,omitempty"`
}

// Attempt is one strategy's run inside a portfolio race: the job's spec
// executed under this mapping strategy, in its own cancellation context.
// The race is decided by simulated steps: the successful attempt with the
// fewest Steps wins, a tie going to the strategy listed first, and its
// result becomes the job's, identical to a solo run of the winner. In a
// done race exactly that attempt is done with Winner set; every other one
// is failed, or cancelled — a loser that stopped itself once it passed the
// winner's step count, or whose run completed in more steps.
type Attempt struct {
	Strategy   string    `json:"strategy"`
	State      State     `json:"state"`
	StartedAt  time.Time `json:"started_at,omitzero"`
	FinishedAt time.Time `json:"finished_at,omitzero"`
	// Steps is the layer-1 steps this attempt executed (zero for attempts
	// cancelled before running).
	Steps int64  `json:"steps,omitempty"`
	Error string `json:"error,omitempty"`
	// Winner marks the attempt whose successful result became the job's.
	Winner bool `json:"winner,omitempty"`
}

// The store keeps opaque keyed annotations with a job; these are the keys
// the service owns.
const (
	// annotationTrace holds the span timeline (tracelog.Timeline): written
	// at submit, so a crash before the job finishes still leaves the trace
	// ID and admission spans for recovery to resume, and again at finish.
	annotationTrace = "trace"
	// annotationAttempts holds a portfolio job's attemptsDoc, rewritten on
	// every attempt transition.
	annotationAttempts = "attempts"
)

// attemptsDoc is the race ledger the service persists and decodes back into
// Job.Winner/Job.Attempts.
type attemptsDoc struct {
	Winner   string    `json:"winner,omitempty"`
	Attempts []Attempt `json:"attempts"`
}

// Sentinel errors of the admission and cancellation paths; the HTTP layer
// maps them onto status codes (429, 404, 409, 500, 503).
var (
	ErrQueueFull = errors.New("service: queue full")
	ErrClosed    = errors.New("service: closed")
	ErrNotFound  = errors.New("service: no such job")
	ErrFinished  = errors.New("service: job already finished")
	// ErrStore wraps persistence failures surfaced at admission.
	ErrStore = errors.New("service: store failure")
)

// DefaultQueueDepth is the admission queue bound New applies to a zero
// Config.QueueDepth.
const DefaultQueueDepth = 64

// Config sizes the service.
type Config struct {
	// QueueDepth bounds how many jobs may wait for a worker; submissions
	// beyond it are rejected with ErrQueueFull. Values <= 0 default to
	// DefaultQueueDepth.
	QueueDepth int
	// Workers is the number of long-lived solve workers. Values <= 0
	// default to runtime.GOMAXPROCS(0).
	Workers int
	// Store is the persistence backend, and owns the retention policy for
	// terminal jobs. Nil selects a fresh in-memory store keeping
	// store.DefaultHistory of them (history dies with the process); a
	// store.File backend makes
	// the service durable — on startup, jobs the previous process left
	// queued or running are re-admitted and run again.
	Store store.Store
	// Telemetry receives the service's metrics (queue depth/capacity,
	// worker occupancy, job lifecycle counters, solve-duration histogram,
	// simulator step counters). Nil allocates a private registry, so
	// instruments always work; pass the process registry to have them
	// scraped on GET /metrics.
	Telemetry *telemetry.Registry
}

// serviceMetrics bundles the instruments updated on the job lifecycle
// paths. Gauges sampled at scrape time (queue depth, steps/sec) are
// registered as GaugeFuncs in New and don't appear here.
type serviceMetrics struct {
	submitted *telemetry.Counter
	rejected  *telemetry.Counter
	finished  map[State]*telemetry.Counter
	duration  *telemetry.Histogram
	busy      *telemetry.Gauge
	steps     *telemetry.Counter

	attemptsStarted   *telemetry.Counter
	attemptsCancelled *telemetry.Counter
}

// Service is a long-lived multi-tenant solve backend: a pluggable job
// store, a bounded FIFO admission queue, and a worker pool draining it.
// All methods are safe for concurrent use.
type Service struct {
	cfg     Config
	store   store.Store
	metrics serviceMetrics

	mu   sync.Mutex
	wake *sync.Cond // signalled when pending grows or the service closes
	// pending is the FIFO of attempts awaiting a worker: a solo job
	// enqueues exactly one, a portfolio job one per strategy. queued
	// counts the jobs (not attempts) still waiting for their first
	// dequeue — the admission-queue load.
	pending []workItem
	queued  int
	// runs holds each live (queued or running) job's in-flight state: the
	// admission-time compilation, the race's per-attempt bookkeeping, the
	// progress broker and the span timeline. Entries are dropped when the
	// job goes terminal.
	runs   map[int64]*jobRun
	closed bool

	// root is the ancestor context of every job run; Close cancels it so
	// in-flight solves stop within one cancellation slice.
	root       context.Context
	cancelRoot context.CancelFunc
	done       chan struct{}
}

// New starts a service: its workers run until Close. When cfg.Store is a
// durable backend, jobs recovered in the queued state (including jobs that
// were running when the previous process died — the store's replay
// normalises those back to queued) are recompiled and re-enqueued in ID
// order before the workers start.
func New(cfg Config) *Service {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.NewRegistry()
	}
	st := cfg.Store
	if st == nil {
		st = store.NewMemory(store.DefaultHistory)
	}
	s := &Service{
		cfg:   cfg,
		store: st,
		runs:  make(map[int64]*jobRun),
		done:  make(chan struct{}),
	}
	s.registerMetrics()
	s.wake = sync.NewCond(&s.mu)
	s.root, s.cancelRoot = context.WithCancel(context.Background())
	s.recover()
	go func() {
		defer close(s.done)
		// The pool is the sweep engine's primitive pointed at an unbounded
		// stream: each of Workers indices runs a drain loop over the shared
		// admission queue until Close.
		_ = parallel.ForEach(cfg.Workers, cfg.Workers, func(int) error {
			for {
				it, ok := s.next()
				if !ok {
					return nil
				}
				s.runAttempt(it)
			}
		})
	}()
	return s
}

// registerMetrics creates the service's instruments. Counters and
// histograms are shared by name across re-registrations, so a service
// rebuilt into the same registry (a standby promoted to primary) keeps
// accumulating; GaugeFunc callbacks are rebound to this instance.
func (s *Service) registerMetrics() {
	reg := s.cfg.Telemetry
	s.metrics = serviceMetrics{
		submitted: reg.Counter("hypersolve_jobs_submitted_total",
			"Jobs accepted by the admission queue."),
		rejected: reg.Counter("hypersolve_jobs_rejected_total",
			"Submissions rejected because the admission queue was full (HTTP 429)."),
		finished: map[State]*telemetry.Counter{
			StateDone: reg.Counter("hypersolve_jobs_finished_total",
				"Jobs that reached a terminal state, by outcome.", telemetry.Label{Key: "state", Value: string(StateDone)}),
			StateFailed: reg.Counter("hypersolve_jobs_finished_total",
				"Jobs that reached a terminal state, by outcome.", telemetry.Label{Key: "state", Value: string(StateFailed)}),
			StateCancelled: reg.Counter("hypersolve_jobs_finished_total",
				"Jobs that reached a terminal state, by outcome.", telemetry.Label{Key: "state", Value: string(StateCancelled)}),
		},
		duration: reg.Histogram("hypersolve_solve_duration_seconds",
			"Wall time a worker spent executing one job, any outcome.", telemetry.DurationBuckets),
		busy: reg.Gauge("hypersolve_workers_busy",
			"Workers currently executing a job."),
		steps: reg.Counter("hypersolve_sim_steps_total",
			"Layer-1 simulator steps executed, summed over all jobs."),
		attemptsStarted: reg.Counter("hypersolve_attempts_started_total",
			"Attempts handed to a worker (one per solo job, one per strategy in a portfolio race)."),
		attemptsCancelled: reg.Counter("hypersolve_attempts_cancelled_total",
			"Attempts cancelled: race losers, job cancellations and shutdown."),
	}
	reg.GaugeFunc("hypersolve_queue_depth",
		"Jobs waiting in the admission queue.", func() float64 { return float64(s.Load()) })
	reg.GaugeFunc("hypersolve_queue_capacity",
		"Admission queue bound; submissions beyond it are rejected.", func() float64 { return float64(s.cfg.QueueDepth) })
	reg.GaugeFunc("hypersolve_workers",
		"Configured solve worker count.", func() float64 { return float64(s.cfg.Workers) })
	reg.GaugeFunc("hypersolve_sim_steps_per_sec",
		"Aggregate stepping rate over currently running jobs.", s.StepsPerSec)
	reg.Gauge("hypersolve_build_info",
		"Build identity of the running binary; always 1, the labels carry the information.",
		telemetry.Label{Key: "version", Value: version.Version},
		telemetry.Label{Key: "commit", Value: version.Commit}).Set(1)
}

// portfolioWins returns the per-strategy race-win counter. Instruments are
// shared by name+labels across calls (the registry is idempotent), so
// strategies create their series lazily on first win.
func (s *Service) portfolioWins(strategy string) *telemetry.Counter {
	return s.cfg.Telemetry.Counter("hypersolve_portfolio_wins_total",
		"Portfolio races won, by winning strategy.",
		telemetry.Label{Key: "strategy", Value: strategy})
}

// Telemetry returns the registry holding the service's metrics (the one
// from Config, or the private default). The HTTP layer serves it on
// GET /metrics.
func (s *Service) Telemetry() *telemetry.Registry { return s.cfg.Telemetry }

// Load returns the current admission-queue occupancy: jobs awaiting their
// first worker (a portfolio job counts once however many attempts it
// races).
func (s *Service) Load() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued
}

// StepsPerSec sums the latest observed stepping rate across running jobs.
// The figure lags reality by up to ProgressInterval per job; it is a
// health headline, not an accounting number.
func (s *Service) StepsPerSec() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var sum float64
	for _, jr := range s.runs {
		sum += jr.broker.LastRate()
	}
	return sum
}

// recover re-admits every job the store reports as queued. Specs were
// validated at original admission; one that no longer compiles (version
// skew in the spec format, say) is failed rather than wedging the queue.
// Re-running is safe: spec+seed determinism makes the re-run bit-identical
// to what the lost run would have produced.
func (s *Service) recover() {
	for _, sj := range s.store.List(store.StateQueued) {
		var spec JobSpec
		err := json.Unmarshal(sj.Spec, &spec)
		var built Compiled
		if err == nil {
			built, err = spec.Compile()
		}
		if err != nil {
			_, _ = s.store.Finish(sj.ID, StateFailed, time.Now().UTC(),
				fmt.Sprintf("recovery: %v", err), nil)
			continue
		}
		// Resume the persisted timeline under the original trace ID so the
		// re-run links to the pre-crash spans; jobs admitted before tracing
		// existed get a fresh trace. The instant requeued span marks the
		// re-admission, then a new queue-wait span opens.
		tr, err := tracelog.Resume(sj.Annotation(annotationTrace))
		if err != nil {
			tr = tracelog.NewTrace(tracelog.TraceContext{})
		}
		tr.AddInstant("requeued", nil)
		jr := s.admitLocked(sj.ID, spec, &built, tr)
		jr.queueSpan = tr.StartSpan("queue")
	}
}

// admitLocked installs a job's run state and enqueues its attempts: one
// work item for a solo job, one per strategy, in spec order, for a
// portfolio race. Callers hold s.mu (or, in New, have not yet shared the
// service).
func (s *Service) admitLocked(id int64, spec JobSpec, built *Compiled, tr *tracelog.Trace) *jobRun {
	strategies := built.strategies
	jr := &jobRun{
		spec:     spec,
		built:    built,
		broker:   NewProgressBroker(),
		trace:    tr,
		race:     newRace(len(strategies)),
		attempts: make([]Attempt, len(strategies)),
		spans:    make([]int64, len(strategies)),
	}
	for i, strat := range strategies {
		jr.attempts[i] = Attempt{Strategy: strat, State: StateQueued}
	}
	// The step counter must be wired before the broker is shared (see
	// ProgressBroker.steps).
	jr.broker.steps = s.metrics.steps
	jr.broker.Publish(Progress{State: StateQueued})
	s.runs[id] = jr
	for i := range strategies {
		s.pending = append(s.pending, workItem{id: id, attempt: i})
	}
	s.queued++
	return jr
}

// workItem is one admission-queue entry: a job's attempt awaiting a
// worker.
type workItem struct {
	id      int64
	attempt int
}

// jobRun is the in-flight state of one admitted job: the compiled spec
// and the race's per-attempt bookkeeping. All fields are guarded by
// Service.mu except the race's ceilings (see race).
type jobRun struct {
	spec  JobSpec
	built *Compiled // its strategies are the attempts, in spec order

	// broker fans the job's progress snapshots out to event subscribers;
	// trace is its in-flight span timeline and queueSpan the open queue-wait
	// span, ended when a worker dequeues the first attempt. The terminal
	// transition publishes the final snapshot and persists the timeline.
	broker    *ProgressBroker
	trace     *tracelog.Trace
	queueSpan int64

	started bool // first attempt dequeued; the job is running
	// ctx is the job-level context (deadline-bounded when the spec asks);
	// every attempt's context is its child, so one cancel stops the race.
	ctx     context.Context
	cancel  context.CancelFunc
	runSpan int64

	attempts []Attempt
	spans    []int64 // per-attempt trace span (0 = none)
	settled  int     // attempts in a terminal state
	race     *race
	bestRes  *JobResult // the race's best attempt's result
}

// race decides a job's attempts by simulated steps: the winner is the
// successful attempt with the fewest Stats.Steps, a tie going to the one
// listed first, so the outcome depends only on spec+seed and never on which
// attempt a loaded host finishes first. A solo job is a race of one. The
// fields are guarded by Service.mu; the ceilings are also read, atomically
// and off-lock, by the attempts' observers.
type race struct {
	best   int   // index of the best successful attempt so far, -1 before any
	steps  int64 // its Stats.Steps
	failed int   // lowest index of a failed attempt, -1 before any
	// ceilings[i] is the most steps attempt i may finish in and still win:
	// with the best at T steps, T for an attempt listed before it and T-1
	// for one listed after. An attempt past its ceiling stops itself.
	ceilings []atomic.Int64
}

func newRace(n int) *race {
	r := &race{best: -1, failed: -1, ceilings: make([]atomic.Int64, n)}
	for i := range r.ceilings {
		r.ceilings[i].Store(math.MaxInt64)
	}
	return r
}

// succeed records attempt idx's success at steps and returns the attempt
// that can no longer win because of it: idx itself when the best so far
// beats it, otherwise the best it displaces (-1 when there was none).
func (r *race) succeed(idx int, steps int64) (loser int) {
	if r.best >= 0 && (steps > r.steps || steps == r.steps && idx > r.best) {
		return idx
	}
	loser, r.best, r.steps = r.best, idx, steps
	for i := range r.ceilings {
		switch {
		case i < idx:
			r.ceilings[i].Store(steps)
		case i > idx:
			r.ceilings[i].Store(steps - 1)
		}
	}
	return loser
}

// fail records attempt idx's failure: it does not decide the race, but
// names the job's error when no attempt succeeds.
func (r *race) fail(idx int) {
	if r.failed < 0 || idx < r.failed {
		r.failed = idx
	}
}

// next blocks until a queued attempt is available or the service closes
// (returning false).
func (s *Service) next() (workItem, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.pending) == 0 && !s.closed {
		s.wake.Wait()
	}
	if len(s.pending) == 0 {
		return workItem{}, false
	}
	it := s.pending[0]
	s.pending = s.pending[1:]
	return it, true
}

// Queue returns the configured admission-queue depth and worker count.
func (s *Service) Queue() (depth, workers int) { return s.cfg.QueueDepth, s.cfg.Workers }

// SubmitTraced validates the spec, persists the submission and enqueues
// the job. It never blocks: when the admission queue is full the job is
// rejected with ErrQueueFull (the HTTP layer's 429), preserving bounded
// memory under overload. Cancelling a queued job frees its slot
// immediately. A valid tc (e.g. parsed from an inbound traceparent header)
// is adopted as the job's trace ID, an invalid or zero one mints a fresh
// trace. The
// timeline opens with sequential compile and admission spans (the
// journal append nested inside admission) and an open queue-wait span;
// the initial timeline is persisted immediately so it survives a crash
// before the job runs.
func (s *Service) SubmitTraced(spec JobSpec, tc tracelog.TraceContext) (Job, error) {
	tr := tracelog.NewTrace(tc)
	compile := tr.StartSpan("compile")
	// Compile the spec up front so malformed jobs fail at admission, not
	// in a worker; the compilation is cached on the service so the worker
	// never re-parses the formula.
	built, err := spec.Compile()
	if err != nil {
		return Job{}, err
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		return Job{}, err
	}
	tr.EndSpan(compile)
	s.mu.Lock()
	defer s.mu.Unlock()
	admission := tr.StartSpan("admission")
	if s.closed {
		return Job{}, ErrClosed
	}
	if s.queued >= s.cfg.QueueDepth {
		s.metrics.rejected.Inc()
		return Job{}, ErrQueueFull
	}
	journal := tr.StartChild("journal", admission)
	sj, err := s.store.Submit(raw, time.Now().UTC())
	tr.EndSpan(journal)
	if err != nil {
		return Job{}, fmt.Errorf("%w: %v", ErrStore, err)
	}
	s.metrics.submitted.Inc()
	jr := s.admitLocked(sj.ID, spec, &built, tr)
	tr.EndSpan(admission)
	jr.queueSpan = tr.StartSpan("queue")
	// Failure to persist the opening timeline costs observability only.
	_ = s.store.Annotate(sj.ID, annotationTrace, tr.JSON())
	// A portfolio race needs one worker per attempt to start concurrently;
	// Signal would hand all its entries to a single woken worker's loop.
	if len(built.strategies) > 1 {
		s.wake.Broadcast()
	} else {
		s.wake.Signal()
	}
	return jobFromRecord(sj), nil
}

// jobFromRecord decodes a persisted record into the API shape. A standby
// (see node.go) serves jobs straight from a replica store through it, so
// the wire shape cannot diverge between a primary and its standby.
func jobFromRecord(sj store.Job) Job {
	j := Job{
		ID:          JobID{Seq: sj.ID},
		State:       sj.State,
		SubmittedAt: sj.SubmittedAt,
		StartedAt:   sj.StartedAt,
		FinishedAt:  sj.FinishedAt,
		Error:       sj.Error,
	}
	// The spec bytes were produced by SubmitTraced's json.Marshal (or validated
	// at recovery); decoding cannot fail.
	_ = json.Unmarshal(sj.Spec, &j.Spec)
	if len(sj.Result) > 0 {
		j.Result = new(JobResult)
		_ = json.Unmarshal(sj.Result, j.Result)
	}
	if doc, ok := attemptsFromRecord(sj); ok {
		j.Winner = doc.Winner
		j.Attempts = doc.Attempts
	}
	return j
}

// attemptsFromRecord decodes a persisted record's race ledger; !ok for a
// job that never raced.
func attemptsFromRecord(sj store.Job) (doc attemptsDoc, ok bool) {
	data := sj.Annotation(annotationAttempts)
	return doc, len(data) > 0 && json.Unmarshal(data, &doc) == nil
}

// Get returns a snapshot of one job.
func (s *Service) Get(id int64) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sj, ok := s.store.Get(id)
	if !ok {
		return Job{}, false
	}
	return jobFromRecord(sj), true
}

// List returns snapshots ordered by ID, optionally filtered to the given
// states (no states = all jobs).
func (s *Service) List(states ...State) []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	recs := s.store.List(states...)
	out := make([]Job, 0, len(recs))
	for _, sj := range recs {
		out = append(out, jobFromRecord(sj))
	}
	return out
}

// countStates reports how many of a store's jobs sit in each state.
func countStates(st store.Store) map[State]int {
	out := make(map[State]int)
	for _, j := range st.List() {
		out[j.State]++
	}
	return out
}

// Health is the service's /healthz report.
func (s *Service) Health() Health {
	return Health{
		Status:      "ok",
		QueueDepth:  s.cfg.QueueDepth,
		Workers:     s.cfg.Workers,
		Jobs:        countStates(s.store),
		Queued:      s.Load(),
		StepsPerSec: s.StepsPerSec(),
		Version:     version.String(),
	}
}

// Subscribe returns a live progress channel for one job, plus an
// unsubscribe function. For a queued or running job the channel delivers
// conflated snapshots (see ProgressBroker) and is closed after the terminal
// snapshot; for a job already terminal — including jobs finished before
// this process started — the channel arrives pre-loaded with a synthesized
// final snapshot and closed. Unknown jobs return ErrNotFound; a job whose
// fan-out bound is exhausted returns ErrTooManySubscribers.
func (s *Service) Subscribe(id int64) (<-chan Progress, func(), error) {
	s.mu.Lock()
	if jr := s.runs[id]; jr != nil {
		defer s.mu.Unlock()
		return jr.broker.Subscribe()
	}
	sj, ok := s.store.Get(id)
	s.mu.Unlock()
	if !ok {
		return nil, nil, ErrNotFound
	}
	// Decode outside the lock: a result carrying series/heatmap payloads
	// can be megabytes, and parsing it must not stall admissions.
	return terminalProgress(sj), func() {}, nil
}

// terminalProgress is the event stream of a terminal job with no live
// broker (it finished before this process started, or this is a standby): a
// closed channel pre-loaded with a final snapshot synthesized from the record.
func terminalProgress(sj store.Job) <-chan Progress {
	p := Progress{State: sj.State, Error: sj.Error}
	if len(sj.Result) > 0 {
		var res struct {
			Stats struct {
				Steps int64 `json:"steps"`
			} `json:"stats"`
		}
		if json.Unmarshal(sj.Result, &res) == nil {
			p.Step = res.Stats.Steps
		}
	}
	ch := make(chan Progress, 1)
	ch <- p
	close(ch)
	return ch
}

// Cancel stops a job. A queued job transitions to cancelled immediately
// and releases its admission-queue slot; a running job has its context
// cancelled and transitions once the simulator observes the cancellation —
// within one simulator.CancelSliceSteps slice. Cancelling a terminal job
// returns ErrFinished.
func (s *Service) Cancel(id int64) (Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sj, ok := s.store.Get(id)
	if !ok {
		return Job{}, ErrNotFound
	}
	switch sj.State {
	case StateQueued:
		kept := s.pending[:0]
		for _, it := range s.pending {
			if it.id != id {
				kept = append(kept, it)
			}
		}
		s.pending = kept
		s.queued--
		s.finishLocked(id, StateCancelled, "", "", nil)
		sj, _ = s.store.Get(id)
	case StateRunning:
		if jr := s.runs[id]; jr != nil && jr.cancel != nil {
			jr.cancel()
		}
	default:
		return jobFromRecord(sj), ErrFinished
	}
	return jobFromRecord(sj), nil
}

// finishLocked records a terminal transition in the store and drops the
// job's cached build. strategy is a won portfolio race's
// winner, stamped on the terminal progress frame; empty otherwise. Callers
// hold s.mu.
func (s *Service) finishLocked(id int64, state State, errMsg, strategy string, result *JobResult) {
	var raw json.RawMessage
	if result != nil {
		raw, _ = json.Marshal(result)
	}
	// A journal write error here degrades durability, not correctness: the
	// store's in-memory view already reflects the transition and stays
	// authoritative for this process.
	_, _ = s.store.Finish(id, state, time.Now().UTC(), errMsg, raw)
	s.metrics.finished[state].Inc()
	jr := s.runs[id]
	// Close whatever is still open (the queue span for a
	// cancelled-while-queued job) and persist the full timeline next to the
	// finish record.
	jr.trace.EndOpen()
	_ = s.store.Annotate(id, annotationTrace, jr.trace.JSON())
	jr.broker.Finish(state, errMsg, strategy, result)
	delete(s.runs, id)
}

// Close stops the service: no further submissions are accepted, queued jobs
// are cancelled, running jobs are interrupted, all workers are joined and
// the store is closed before Close returns. Close is idempotent.
//
// Note the durability contract: Close is a deliberate drain, so outstanding
// jobs are recorded as cancelled. A crash (SIGKILL, power loss) records
// nothing — those jobs come back queued on the next start and run again.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.done
		return
	}
	s.closed = true
	// Cancel first: a race whose last attempt settles below must end
	// cancelled, not be decided without the attempts that never ran.
	s.cancelRoot()
	for _, it := range s.pending {
		jr := s.runs[it.id]
		if jr == nil {
			continue
		}
		if !jr.started {
			// Still queued: cancel the whole job. finishLocked drops the
			// runs entry, so this job's remaining attempt items fall through
			// the nil check above.
			s.queued--
			s.finishLocked(it.id, StateCancelled, "", "", nil)
			continue
		}
		// A running job's not-yet-dequeued attempt: no worker will pick it
		// up now, so settle it here. The job's in-flight attempts are
		// interrupted by the root cancellation above and settle in their
		// worker epilogues.
		s.settleAttemptLocked(it.id, jr, it.attempt, StateCancelled, "", 0)
	}
	s.pending = nil
	s.queued = 0
	s.wake.Broadcast()
	s.mu.Unlock()
	<-s.done
	_ = s.store.Close()
}

// runAttempt drives one dequeued attempt through its run. The first
// attempt of a job to reach a worker transitions the job to running (store
// record, run span, job-level context); every attempt then executes the
// admission-compiled spec under its own strategy and child context, and
// the job finishes once every attempt has settled (see race).
func (s *Service) runAttempt(it workItem) {
	id, idx := it.id, it.attempt
	s.mu.Lock()
	jr := s.runs[id]
	if jr == nil {
		// Cancelled while queued (or cancelled by Close): nothing to run.
		s.mu.Unlock()
		return
	}
	if jr.ctx != nil && jr.ctx.Err() != nil {
		// The job was cancelled or ran out of time: record the attempt
		// cancelled without occupying the worker. An attempt that waited
		// while another won still runs, under its ceiling: it may win yet.
		s.settleAttemptLocked(id, jr, idx, StateCancelled, "", 0)
		s.mu.Unlock()
		return
	}
	tr := jr.trace
	if !jr.started {
		jr.started = true
		s.queued--
		// The runs-entry check above ran under this same lock, so Start can
		// only fail on a journal write, which degrades durability, not
		// correctness.
		_ = s.store.Start(id, time.Now().UTC())
		tr.EndSpan(jr.queueSpan)
		jr.runSpan = tr.StartSpan("run")
		jr.broker.Publish(Progress{State: StateRunning})
		if d := jr.spec.Deadline(); d > 0 {
			jr.ctx, jr.cancel = context.WithDeadlineCause(s.root, time.Now().Add(d),
				fmt.Errorf("service: job %d exceeded its %v deadline", id, d))
		} else {
			jr.ctx, jr.cancel = context.WithCancel(s.root)
		}
	}
	strat := jr.built.strategies[idx]
	jr.attempts[idx].State = StateRunning
	jr.attempts[idx].StartedAt = time.Now().UTC()
	s.metrics.attemptsStarted.Inc()
	actx, acancel := context.WithCancel(jr.ctx)
	// What a portfolio job adds to the shape of its output, and a mapper job
	// does not: an attempt child span (which then takes the annotations and
	// the step count instead of the run span), the strategy on progress
	// frames, and the journaled ledger.
	span, frameStrategy := jr.runSpan, ""
	if jr.built.portfolio {
		span = tr.StartChild("attempt", jr.runSpan)
		tr.SetAttr(span, "strategy", strat)
		jr.spans[idx] = span
		frameStrategy = strat
		s.persistAttemptsLocked(id, jr)
	}
	// Step annotations ride the observer's throttled publish cadence, never
	// the per-step path.
	obs := jr.broker.attemptObserver(frameStrategy, &jr.race.ceilings[idx], acancel, func(step int64, queued int) {
		tr.Annotate(span, fmt.Sprintf("step %d, %d queued", step, queued))
	})
	s.mu.Unlock()
	defer acancel()

	s.metrics.busy.Add(1)
	runStart := time.Now()
	res, runErr := execute(actx, jr.spec, jr.built, strat, obs)
	s.metrics.duration.Observe(time.Since(runStart).Seconds())
	s.metrics.busy.Add(-1)

	s.mu.Lock()
	defer s.mu.Unlock()
	var steps int64
	if res != nil {
		steps = res.Stats.Steps
		// The observer counted steps up to its last publish; account the
		// tail (all of them, for a run that never crossed the cadence).
		s.metrics.steps.Add(steps - obs.CountedSteps())
	}
	switch {
	case runErr == nil:
		loser := jr.race.succeed(idx, steps)
		if loser == idx {
			// Completed, but in more steps than the best: a loser.
			s.settleAttemptLocked(id, jr, idx, StateCancelled, "", steps)
			return
		}
		jr.bestRes = res
		if loser >= 0 {
			s.demoteLocked(jr, loser)
		}
		s.settleAttemptLocked(id, jr, idx, StateDone, "", steps)
	case errors.Is(runErr, context.Canceled):
		// Stopped past its ceiling, or the job was cancelled.
		s.settleAttemptLocked(id, jr, idx, StateCancelled, "", steps)
	default:
		// A machine error or the job's deadline, whose cause set above names
		// the budget.
		jr.race.fail(idx)
		s.settleAttemptLocked(id, jr, idx, StateFailed, runErr.Error(), steps)
	}
}

// settleAttemptLocked records attempt idx's terminal state and, once every
// attempt of the job has settled, finishes the race. Settling an already-
// terminal attempt is a no-op (an attempt can be cancelled out of the
// pending queue and again in its worker's epilogue). Callers hold s.mu.
func (s *Service) settleAttemptLocked(id int64, jr *jobRun, idx int, state State, errMsg string, steps int64) {
	a := &jr.attempts[idx]
	if a.State.Terminal() {
		return
	}
	a.State = state
	a.Error = errMsg
	a.Steps = steps
	a.FinishedAt = time.Now().UTC()
	if state == StateCancelled {
		s.metrics.attemptsCancelled.Inc()
	}
	if span := jr.spans[idx]; span != 0 {
		if state == StateCancelled {
			jr.trace.SetAttr(span, "cancelled", true)
		}
		if steps > 0 {
			jr.trace.SetAttr(span, "steps", steps)
		}
		jr.trace.EndSpan(span)
	} else if steps > 0 {
		// An attempt that ran without a span of its own is a mapper job's:
		// the run span carries the step count.
		jr.trace.SetAttr(jr.runSpan, "steps", steps)
	}
	jr.settled++
	if jr.settled == len(jr.attempts) {
		s.finishRaceLocked(id, jr)
	} else if jr.built.portfolio {
		s.persistAttemptsLocked(id, jr)
	}
}

// demoteLocked records as cancelled a done attempt that will not win:
// another attempt finished in fewer steps, or the job was cancelled.
// Callers hold s.mu.
func (s *Service) demoteLocked(jr *jobRun, idx int) {
	jr.attempts[idx].State = StateCancelled
	s.metrics.attemptsCancelled.Inc()
	if span := jr.spans[idx]; span != 0 {
		jr.trace.SetAttr(span, "cancelled", true)
	}
}

// finishRaceLocked finishes a job whose every attempt has settled: done
// with the best attempt's result; cancelled when the job's context was
// cancelled (by Cancel or Close), whatever the attempts achieved; failed
// with the lowest-index failed attempt's error when no attempt succeeded.
// It persists the final attempt ledger first. Callers hold s.mu.
func (s *Service) finishRaceLocked(id int64, jr *jobRun) {
	cancelled := errors.Is(jr.ctx.Err(), context.Canceled)
	// Release the job context (and its deadline timer, if any).
	jr.cancel()
	jr.trace.EndSpan(jr.runSpan)
	state, errMsg, strat := StateCancelled, "", ""
	var res *JobResult
	switch best := jr.race.best; {
	case best >= 0 && !cancelled:
		state, res = StateDone, jr.bestRes
		jr.attempts[best].Winner = true
		if jr.built.portfolio {
			strat = jr.built.strategies[best]
			jr.trace.SetAttr(jr.spans[best], "winner", true)
			s.portfolioWins(strat).Inc()
		}
	case best >= 0:
		s.demoteLocked(jr, best)
	case !cancelled && jr.race.failed >= 0:
		state, errMsg = StateFailed, jr.attempts[jr.race.failed].Error
	}
	if jr.built.portfolio {
		s.persistAttemptsLocked(id, jr)
	}
	s.finishLocked(id, state, errMsg, strat, res)
}

// persistAttemptsLocked journals the race's current attempt ledger through
// the store. Failure costs observability only — the in-memory race state
// stays authoritative for this process. Callers hold s.mu.
func (s *Service) persistAttemptsLocked(id int64, jr *jobRun) {
	doc := attemptsDoc{Attempts: jr.attempts}
	if best := jr.race.best; best >= 0 && jr.attempts[best].Winner {
		doc.Winner = jr.built.strategies[best]
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return
	}
	_ = s.store.Annotate(id, annotationAttempts, data)
}

// execute runs one admission-compiled spec under ctx with the given mapping
// strategy, decoding the raw result into the job's JSON payload. The
// observer (nil when the job has no broker) streams throttled progress
// snapshots from the layer-1 step loop.
func execute(ctx context.Context, spec JobSpec, built *Compiled, strategy string, obs simulator.Observer) (*JobResult, error) {
	cfg := built.Config
	cfg.Mapper = built.mappers[strategy]
	cfg.Observer = obs
	machine, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	raw, err := machine.RunContext(ctx, built.Arg)
	if err != nil {
		// An interrupted run still reports how far it got.
		return &JobResult{Stats: raw.Stats}, err
	}
	res := &JobResult{
		OK:              raw.OK,
		ComputationTime: raw.ComputationTime,
		Performance:     raw.Performance,
		Stats:           raw.Stats,
	}
	if spec.RecordSeries {
		res.Series = raw.QueuedSeries
	}
	if spec.Heatmap {
		res.Heatmap = machine.NodeHeatmap(raw)
	}
	if raw.OK {
		if out, isSAT := raw.Value.(sat.Outcome); isSAT {
			sr := &SATResult{Status: out.Status.String()}
			if out.Status == sat.SAT {
				for v := 1; v <= built.Formula.NumVars; v++ {
					// Unassigned variables default to false, matching
					// sat.Verify's reading of partial assignments.
					lit := -v
					if v < len(out.Assignment) && out.Assignment.Value(v) > 0 {
						lit = v
					}
					sr.Assignment = append(sr.Assignment, lit)
				}
				sr.Verified = sat.Verify(*built.Formula, out.Assignment)
			}
			res.SAT = sr
		} else {
			res.Value = raw.Value
		}
	}
	return res, nil
}
