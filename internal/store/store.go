// Package store is the persistence layer of the solve service: a pluggable
// job store tracking every job through the queued → running →
// done/failed/cancelled lifecycle. Two backends implement the Store
// interface — Memory, the original in-process map, and File, a durable
// backend built on an append-only JSONL write-ahead journal with periodic
// snapshot compaction, so a hypersolved daemon can be SIGKILLed and
// restarted on the same data directory without losing job history or
// queued work.
//
// The store deliberately knows nothing about what it carries beyond JSON
// encodings (json.RawMessage): internal/service owns the typed shapes, the
// store owns identity, lifecycle and retention. A job's spec and result are
// two such blobs; anything else a layer above wants kept with a job is an
// annotation — an opaque value under a key the writer chooses (Annotate).
// The store names no key (legacy.go, which reads data directories from
// before annotations were generic, excepted), so the dependency is one-way
// and the journal format is independent of every format it carries.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"
)

// State is a job's lifecycle stage.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// ParseState validates a wire-format state name (the HTTP list filter).
func ParseState(name string) (State, error) {
	switch st := State(name); st {
	case StateQueued, StateRunning, StateDone, StateFailed, StateCancelled:
		return st, nil
	}
	return "", fmt.Errorf("store: unknown state %q (want queued|running|done|failed|cancelled)", name)
}

// Job is the persisted record of one solve: the spec and result as raw
// JSON, the lifecycle state and its timestamps. Stores hand out copies,
// never aliases into their internal maps.
type Job struct {
	ID          int64           `json:"id"`
	Spec        json.RawMessage `json:"spec"`
	State       State           `json:"state"`
	SubmittedAt time.Time       `json:"submitted_at"`
	StartedAt   time.Time       `json:"started_at,omitzero"`
	FinishedAt  time.Time       `json:"finished_at,omitzero"`
	Error       string          `json:"error,omitempty"`
	Result      json.RawMessage `json:"result,omitempty"`
	// Annotations, in first-write order (read one with Annotation). The
	// slice is copy-on-write: Annotate installs a fresh one and never
	// touches one it has handed out, so a Job copy shares it for free and
	// must treat it as read-only.
	Annotations []Annotation `json:"annotations,omitempty"`
}

// Annotation is one keyed sidecar of a job (see Store.Annotate).
type Annotation struct {
	Key   string          `json:"key"`
	Value json.RawMessage `json:"value,omitempty"`
}

// Annotation returns the value kept under key, nil when there is none.
func (j Job) Annotation(key string) json.RawMessage {
	for _, a := range j.Annotations {
		if a.Key == key {
			return a.Value
		}
	}
	return nil
}

// Sentinel errors of the lifecycle transitions.
var (
	ErrNotFound  = errors.New("store: no such job")
	ErrNotQueued = errors.New("store: job not queued")
	ErrTerminal  = errors.New("store: job already terminal")
	ErrClosed    = errors.New("store: closed")
)

// Store tracks jobs through their lifecycle. Implementations are safe for
// concurrent use; the service additionally serialises all mutations behind
// its own lock, so backends never see racing transitions for one job.
type Store interface {
	// Submit assigns the next monotonic ID and records a new queued job.
	Submit(spec json.RawMessage, at time.Time) (Job, error)
	// Start moves a queued job to running.
	Start(id int64, at time.Time) error
	// Finish moves a non-terminal job to the given terminal state,
	// recording the error message and result payload. It returns the IDs
	// of any terminal jobs evicted to respect the retention bound, so
	// callers can drop their own per-job caches.
	Finish(id int64, state State, at time.Time, errMsg string, result json.RawMessage) (evicted []int64, err error)
	// Annotate attaches (or replaces) the value kept under key on a job;
	// the store interprets neither. Last write wins, valid in any state (a
	// final value can land just after Finish); durable backends journal it
	// like any transition, so it survives restarts and replicates.
	Annotate(id int64, key string, value json.RawMessage) error
	// Get returns a snapshot of one job.
	Get(id int64) (Job, bool)
	// List returns snapshots ordered by ID, optionally filtered to the
	// given states (no states = all jobs).
	List(states ...State) []Job
	// Close releases backend resources. Jobs are not transitioned: on a
	// durable backend, whatever is non-terminal at Close (or at a crash)
	// is re-queued by the next Open.
	Close() error
}

// DefaultHistory is the terminal-job retention bound applied when a
// backend is configured with History <= 0.
const DefaultHistory = 4096
