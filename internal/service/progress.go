package service

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"hypersolve/internal/telemetry"
)

// Progress is a throttled snapshot of a job's execution, streamed to
// subscribers over the SSE endpoint (GET /v1/jobs/{id}/events) and through
// Client.Watch. While the job runs, snapshots carry the layer-1 step count,
// the messages queued across the mesh, wall-clock elapsed time and the
// stepping rate since the previous snapshot. The final snapshot of every
// stream has a terminal State (done, failed or cancelled) — for failed
// jobs, Error carries the reason.
type Progress struct {
	// State is the job's lifecycle stage as of this snapshot. Exactly one
	// snapshot per stream has a terminal state, and it is always the last.
	State State `json:"state"`
	// Step is the simulation step count (for terminal snapshots of completed
	// runs, the total steps executed).
	Step int64 `json:"step"`
	// Queued is the number of messages in flight across the mesh.
	Queued int `json:"queued"`
	// ElapsedMs is wall-clock time since the job started running.
	ElapsedMs int64 `json:"elapsed_ms"`
	// StepsPerSec is the stepping rate since the previous snapshot (since
	// run start for the first; zero on terminal snapshots).
	StepsPerSec float64 `json:"steps_per_sec,omitempty"`
	// Strategy is the mapping strategy behind this snapshot of a portfolio
	// job: while the race runs every attempt publishes frames tagged with
	// its own; the terminal snapshot of a done race carries the winner's.
	// Empty for solo jobs.
	Strategy string `json:"strategy,omitempty"`
	// Error is the failure reason on a terminal failed snapshot.
	Error string `json:"error,omitempty"`
}

// ProgressInterval is the broker's throttle cadence: a running job publishes
// at most one progress snapshot per interval, however fast it steps, so a
// subscriber's event rate is bounded regardless of machine size.
const ProgressInterval = 250 * time.Millisecond

// progressCheckSteps is how often (in layer-1 steps) the observer consults
// the wall clock and its attempt's step ceiling. A power of two keeps the
// per-step cost to one mask-and-compare — the same trick as
// simulator.CancelSliceSteps — so an attached observer with no subscribers
// adds no allocations and negligible time to the hot path.
const progressCheckSteps = 1024

// maxSubscribers bounds the fan-out of one job's event stream; subscriptions
// beyond it are rejected (the HTTP layer's 503) rather than growing without
// bound.
const maxSubscribers = 128

// ErrTooManySubscribers rejects a Subscribe beyond the per-job fan-out bound.
var ErrTooManySubscribers = errors.New("service: too many event subscribers for this job")

// ProgressBroker fans one job's progress snapshots out to any number of
// subscribers with last-event-kept semantics: every subscriber owns a
// 1-buffered channel holding the latest snapshot, and publishing replaces a
// stale pending snapshot instead of blocking. A slow (or stuck) subscriber
// therefore misses intermediate snapshots but never back-pressures the solve
// loop, and the terminal snapshot — published exactly once, after which the
// broker closes every channel — is always the last value a subscriber
// receives. All methods are safe for concurrent use.
type ProgressBroker struct {
	// steps accumulates executed simulator steps into the service's
	// telemetry registry. Deltas are added on the observer's throttled
	// publish cadence (the service's attempt epilogue adds each attempt's
	// tail), never per step, so the solve loop's cost is unchanged. Nil (a
	// no-op) outside a service — set before the broker is shared, read-only
	// after.
	steps *telemetry.Counter

	mu   sync.Mutex
	subs map[int]chan Progress
	next int
	last Progress
	seen bool // at least one snapshot published
	done bool // terminal snapshot published; channels closed
}

// NewProgressBroker returns an empty broker.
func NewProgressBroker() *ProgressBroker { return &ProgressBroker{} }

// Publish delivers a snapshot to every subscriber, conflating with any
// undelivered previous snapshot. Publishing a snapshot with a terminal
// State finishes the stream: every subscriber channel is closed and later
// publishes are ignored.
func (b *ProgressBroker) Publish(p Progress) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.done {
		return
	}
	b.last = p
	b.seen = true
	for _, ch := range b.subs {
		select {
		case ch <- p:
		default:
			// The subscriber has an unread snapshot: drop it and keep the
			// newer one. The second send cannot block — only Publish sends,
			// and it holds the lock.
			select {
			case <-ch:
			default:
			}
			select {
			case ch <- p:
			default:
			}
		}
	}
	if p.State.Terminal() {
		b.done = true
		for _, ch := range b.subs {
			close(ch)
		}
		b.subs = nil
	}
}

// Finish publishes the terminal snapshot for a job that reached state, using
// the result's statistics when available and the last published snapshot
// otherwise, then closes every subscriber channel. strategy stamps the
// frame with a portfolio race's winner; it is empty for solo jobs and for
// races nobody won.
func (b *ProgressBroker) Finish(state State, errMsg, strategy string, res *JobResult) {
	b.mu.Lock()
	p := b.last
	b.mu.Unlock()
	p.State = state
	p.Error = errMsg
	p.StepsPerSec = 0
	p.Strategy = strategy
	if res != nil {
		p.Step = res.Stats.Steps
		p.Queued = 0
	}
	b.Publish(p)
}

// LastRate returns the stepping rate of the latest running snapshot, zero
// once the stream has finished. The service sums this across live brokers
// for the fleet-facing steps/sec gauge.
func (b *ProgressBroker) LastRate() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.done {
		return 0
	}
	return b.last.StepsPerSec
}

// Subscribe registers a subscriber and returns its snapshot channel plus an
// unsubscribe function (safe to call more than once). The latest snapshot,
// if any, is replayed immediately; if the stream has already finished the
// channel arrives pre-loaded with the terminal snapshot and closed.
// Subscriptions beyond the per-job fan-out bound fail with
// ErrTooManySubscribers.
func (b *ProgressBroker) Subscribe() (<-chan Progress, func(), error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	ch := make(chan Progress, 1)
	if b.seen {
		ch <- b.last
	}
	if b.done {
		close(ch)
		return ch, func() {}, nil
	}
	if len(b.subs) >= maxSubscribers {
		return nil, nil, ErrTooManySubscribers
	}
	if b.subs == nil {
		b.subs = make(map[int]chan Progress)
	}
	id := b.next
	b.next++
	b.subs[id] = ch
	cancel := func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		delete(b.subs, id)
	}
	return ch, cancel, nil
}

// attemptObserver returns the simulator.Observer of one attempt, publishing
// throttled running snapshots into the broker and stamping elapsed time from
// the moment of this call (the attempt's run start). The observer allocates
// nothing per step: the wall clock is consulted once per progressCheckSteps
// steps, and a snapshot is published only when ProgressInterval has passed
// since the last one, so a machine stepping millions of times per second
// still costs its subscribers (and the solve loop) a handful of snapshots
// per second.
//
// Frames carry strategy, which is empty for a solo job. ceiling, when
// non-nil, is the most steps the attempt may finish in and still win its
// race (see race): at a check past it the observer calls stop, cancelling
// the attempt's own context. annotate, when non-nil, receives each
// publish-cadence step count and queue depth — the service aims it at the
// attempt's trace span, or at the run span when the job has no attempt
// spans. Returned concretely so the attempt epilogue can read CountedSteps.
func (b *ProgressBroker) attemptObserver(strategy string, ceiling *atomic.Int64, stop context.CancelFunc, annotate func(step int64, queued int)) *progressObserver {
	now := time.Now()
	return &progressObserver{b: b, started: now, lastPub: now, strategy: strategy, ceiling: ceiling, stop: stop, annotate: annotate}
}

type progressObserver struct {
	b        *ProgressBroker
	started  time.Time
	lastPub  time.Time
	lastStep int64

	strategy string
	ceiling  *atomic.Int64
	stop     context.CancelFunc
	annotate func(step int64, queued int)
}

// CountedSteps reports how many executed steps this observer has added to
// the telemetry counter. The attempt epilogue reads it after the run
// returns (the observer is quiescent by then) to account the tail run
// since the last publish.
func (o *progressObserver) CountedSteps() int64 { return o.lastStep }

func (o *progressObserver) AfterStep(step int64, queued int) {
	if step&(progressCheckSteps-1) != 0 {
		return
	}
	if o.ceiling != nil && step >= o.ceiling.Load() {
		// AfterStep(step) means the run will end with more than step steps,
		// so past its ceiling this attempt can no longer win.
		o.stop()
	}
	now := time.Now()
	since := now.Sub(o.lastPub)
	if since < ProgressInterval {
		return
	}
	o.b.Publish(Progress{
		State:       StateRunning,
		Step:        step,
		Queued:      queued,
		ElapsedMs:   now.Sub(o.started).Milliseconds(),
		StepsPerSec: float64(step-o.lastStep) / since.Seconds(),
		Strategy:    o.strategy,
	})
	o.b.steps.Add(step - o.lastStep)
	if o.annotate != nil {
		o.annotate(step, queued)
	}
	o.lastPub = now
	o.lastStep = step
}
