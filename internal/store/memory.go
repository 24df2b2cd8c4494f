package store

import (
	"encoding/json"
	"slices"
	"sort"
	"sync"
	"time"
)

// Memory is the in-process backend: the solve service's original job map,
// extracted behind the Store interface. State dies with the process; the
// File backend reuses it as the in-RAM view of the journal.
type Memory struct {
	mu       sync.Mutex
	history  int
	nextID   int64
	jobs     map[int64]*Job
	finished []int64 // terminal job IDs in completion order, driving eviction
}

// NewMemory returns an empty in-process store retaining at most history
// terminal jobs (<= 0 selects DefaultHistory).
func NewMemory(history int) *Memory {
	if history <= 0 {
		history = DefaultHistory
	}
	return &Memory{history: history, jobs: make(map[int64]*Job)}
}

// Submit implements Store: it assigns the next monotonic ID and records
// a new queued job.
func (m *Memory) Submit(spec json.RawMessage, at time.Time) (Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextID++
	j := &Job{ID: m.nextID, Spec: spec, State: StateQueued, SubmittedAt: at}
	m.jobs[j.ID] = j
	return *j, nil
}

// Start implements Store: it moves a queued job to running.
func (m *Memory) Start(id int64, at time.Time) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return ErrNotFound
	}
	if j.State != StateQueued {
		return ErrNotQueued
	}
	j.State = StateRunning
	j.StartedAt = at
	return nil
}

// Finish implements Store: it moves a non-terminal job to a terminal
// state and returns any IDs evicted to respect the retention bound.
func (m *Memory) Finish(id int64, state State, at time.Time, errMsg string, result json.RawMessage) ([]int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	if j.State.Terminal() {
		return nil, ErrTerminal
	}
	if !state.Terminal() {
		return nil, ErrNotQueued
	}
	j.State = state
	j.FinishedAt = at
	j.Error = errMsg
	j.Result = result
	m.finished = append(m.finished, id)
	var evicted []int64
	for len(m.finished) > m.history {
		evicted = append(evicted, m.finished[0])
		delete(m.jobs, m.finished[0])
		m.finished = m.finished[1:]
	}
	return evicted, nil
}

// Annotate implements Store: it installs a fresh annotation slice holding
// the new value, so Job copies already handed out keep the one they share.
func (m *Memory) Annotate(id int64, key string, value json.RawMessage) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return ErrNotFound
	}
	next := make([]Annotation, len(j.Annotations), len(j.Annotations)+1)
	copy(next, j.Annotations)
	if i := slices.IndexFunc(next, func(a Annotation) bool { return a.Key == key }); i >= 0 {
		next[i].Value = value
	} else {
		next = append(next, Annotation{key, value})
	}
	j.Annotations = next
	return nil
}

// Get implements Store: it returns a snapshot of one job.
func (m *Memory) Get(id int64) (Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

// List implements Store: it returns snapshots ordered by ID, optionally
// filtered by state.
func (m *Memory) List(states ...State) []Job {
	m.mu.Lock()
	out := make([]Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		if len(states) == 0 || slices.Contains(states, j.State) {
			out = append(out, *j)
		}
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// Close implements Store; the in-memory backend holds no resources.
func (m *Memory) Close() error { return nil }

// --- replay hooks -----------------------------------------------------------
//
// The File backend rebuilds its Memory view by replaying snapshot + journal.
// Replay is idempotent: a record already reflected in the snapshot (the
// compaction crash window between snapshot rename and journal truncation)
// changes nothing. Start, Finish and Annotate are idempotent as they stand
// — they refuse what does not apply, and replay drops the refusal — so only
// Submit, which must take its ID from the record, has a variant.

func (m *Memory) restoreSubmit(id int64, spec json.RawMessage, at time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if id > m.nextID {
		m.nextID = id
	}
	if _, ok := m.jobs[id]; ok {
		return
	}
	m.jobs[id] = &Job{ID: id, Spec: spec, State: StateQueued, SubmittedAt: at}
}

// rollbackSubmit undoes a Submit whose record never reached the journal, so
// a rejected admission is gone from the view. Its ID stays burned: IDs are
// monotonic, and nothing that might have glimpsed this one can ever see it
// name a different spec.
func (m *Memory) rollbackSubmit(id int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.jobs, id)
}

// requeueRunning normalises jobs that were running at crash time back to
// queued: re-running a deterministic spec+seed is safe, and the service
// re-admits every queued job on startup. It returns the re-queued IDs.
func (m *Memory) requeueRunning() []int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var ids []int64
	for _, j := range m.jobs {
		if j.State == StateRunning {
			j.State = StateQueued
			j.StartedAt = time.Time{}
			ids = append(ids, j.ID)
		}
	}
	sort.Slice(ids, func(i, k int) bool { return ids[i] < ids[k] })
	return ids
}

// snapshotState copies the full view for compaction.
func (m *Memory) snapshotState() (nextID int64, finished []int64, jobs []wireJob) {
	m.mu.Lock()
	defer m.mu.Unlock()
	jobs = make([]wireJob, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, wireJob{Job: *j})
	}
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].ID < jobs[k].ID })
	return m.nextID, append([]int64(nil), m.finished...), jobs
}

// install replaces the view with a loaded snapshot.
func (m *Memory) install(nextID int64, finished []int64, jobs []wireJob) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextID = nextID
	m.finished = finished
	m.jobs = make(map[int64]*Job, len(jobs))
	for i := range jobs {
		j := jobs[i].modern()
		m.jobs[j.ID] = &j
	}
}
