package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"hypersolve/internal/ringbuf"
	"hypersolve/internal/telemetry"
)

// File names inside a File store's directory: the write-ahead journal, the
// rotated journal a background compaction is absorbing, the compacted
// snapshot, and the advisory lock guarding single-daemon access.
const (
	JournalName     = "journal.jsonl"
	JournalPrevName = "journal.prev.jsonl"
	SnapshotName    = "snapshot.json"
	LockName        = "store.lock"
)

// DefaultSnapshotEvery is the journal length (in records) that triggers a
// snapshot compaction when FileConfig.SnapshotEvery <= 0.
const DefaultSnapshotEvery = 1024

// FileConfig shapes a durable file store.
type FileConfig struct {
	// Dir is the data directory; it is created if missing.
	Dir string
	// History bounds retained terminal jobs (<= 0 selects DefaultHistory).
	History int
	// Fsync syncs the journal after every record. Off, a SIGKILLed process
	// loses nothing (the kernel holds the written bytes) but a machine
	// crash can lose the tail; on, every transition survives power loss at
	// a large throughput cost.
	Fsync bool
	// SnapshotEvery is the number of journal records between snapshot
	// compactions (<= 0 selects DefaultSnapshotEvery).
	SnapshotEvery int
	// Replica opens the store in replica mode: direct mutations are
	// rejected with ErrReplica, jobs left running by a crashed primary are
	// NOT re-queued (the replica keeps mirroring the primary's view), and
	// the only write path is ApplyFeed. Promote flips the store to
	// read-write. See replication.go.
	Replica bool
	// Telemetry receives the store's metrics (journal size/records,
	// compaction count and duration, replay time, fsync latency). Nil
	// allocates a private registry. A store reopened into the same
	// registry — a standby demoted back to replica mode — keeps
	// accumulating into the same counters.
	Telemetry *telemetry.Registry
}

// fileMetrics bundles the instruments updated on the journal write and
// compaction paths; scrape-time gauges (live record count, journal bytes)
// are GaugeFuncs registered in Open.
type fileMetrics struct {
	records           *telemetry.Counter
	compactions       *telemetry.Counter
	compactionSeconds *telemetry.Histogram
	fsyncSeconds      *telemetry.Histogram
	replaySeconds     *telemetry.Gauge
}

// File is the durable backend: a Memory view kept in lockstep with an
// append-only JSONL write-ahead journal. One record is appended per job
// transition (submit/start/finish) and per annotation; every SnapshotEvery
// records the journal is rotated aside and a background goroutine writes
// the full view to SnapshotName (tmp-file + fsync + rename + dir sync),
// then deletes the rotated journal — so the log never grows without bound
// and the transition that trips the threshold pays only a rename, not the
// snapshot write. Open replays snapshot + rotated journal + journal,
// tolerating a torn trailing record, and re-queues jobs that were running
// at crash time; every replay step is idempotent, so a crash anywhere in
// the compaction pipeline converges to the same state.
type File struct {
	cfg     FileConfig
	mem     *Memory
	metrics fileMetrics

	// mu serialises mutations (journal appends, rotation, close); reads go
	// straight to the Memory view under its own lock, so they are never
	// blocked by an in-flight compaction.
	mu      sync.Mutex
	idle    *sync.Cond // signalled when a background compaction finishes
	journal *os.File
	lock    *os.File // flock'd LockName handle; kernel-released on death
	recs    int      // records in the current journal, drives compaction

	// Replication state. Every record carries a log sequence number (LSN)
	// that survives compaction and restarts; epoch is the fencing token
	// bumped by each promotion. tail keeps the most recent records in
	// memory — the contiguous run (lsn-tail.Len(), lsn], at most
	// 2*SnapshotEvery of them — so Feed can serve a caught-up replica
	// without touching the (possibly rotated) journal files; a replica
	// whose cursor has fallen off it is bootstrapped from a snapshot.
	lsn     int64
	epoch   int64
	tail    ringbuf.Ring[rec]
	replica bool // read-only until Promote

	// compacting marks a background compaction in flight; retryInline
	// marks that the last one failed (the rotated journal still exists),
	// so the next trigger compacts synchronously instead of rotating
	// again. compactErr is the last compaction's failure, nil once a later
	// one succeeds; Close returns it.
	compacting  bool
	retryInline bool
	compactErr  error
	closed      bool
}

// testHookCompacting, when set, is called by the background compactor
// before it writes the snapshot — tests use it to hold a compaction open
// while asserting that transitions do not block behind it.
var testHookCompacting func()

// The journal's ops: three transitions, one key/value annotation, and a
// promotion (see replication.go), which carries no job.
const (
	opSubmit   = "submit"
	opStart    = "start"
	opFinish   = "finish"
	opAnnotate = "annotate"
	opEpoch    = "epoch"
)

// rec is one journal line. LSN is the record's log sequence number —
// monotonic across compactions and restarts, the replication stream's
// cursor. Records written before LSNs existed carry none and are assigned
// one during replay; wireRec (legacy.go) reads those from before opAnnotate.
type rec struct {
	Op     string          `json:"op"`
	LSN    int64           `json:"lsn,omitempty"`
	ID     int64           `json:"id,omitempty"`
	At     time.Time       `json:"at,omitzero"`
	Spec   json.RawMessage `json:"spec,omitempty"`
	State  State           `json:"state,omitempty"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	Key    string          `json:"key,omitempty"`
	Value  json.RawMessage `json:"value,omitempty"`
	Epoch  int64           `json:"epoch,omitempty"`
}

// snapshot is the compacted full state. LSN is the last record folded in;
// Epoch the fencing epoch at capture time.
type snapshot struct {
	NextID   int64     `json:"next_id"`
	Finished []int64   `json:"finished"`
	Jobs     []wireJob `json:"jobs"`
	LSN      int64     `json:"lsn,omitempty"`
	Epoch    int64     `json:"epoch,omitempty"`
}

// Open loads (or creates) a durable store in cfg.Dir. Recovery is
// crash-tolerant in three ways: a truncated or corrupt trailing journal
// line (a torn write) is discarded, records already reflected in the
// snapshot (the windows inside the compaction pipeline) replay as no-ops,
// and a rotated journal left by a compaction that never finished is
// replayed before the live journal and folded into a fresh snapshot. Jobs
// left queued or running by the previous process come back queued, ready
// for the service to re-admit.
func Open(cfg FileConfig) (*File, error) {
	if cfg.History <= 0 {
		cfg.History = DefaultHistory
	}
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = DefaultSnapshotEvery
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	lock, err := lockDir(cfg.Dir)
	if err != nil {
		return nil, err
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.NewRegistry()
	}
	f := &File{cfg: cfg, mem: NewMemory(cfg.History), lock: lock}
	f.idle = sync.NewCond(&f.mu)
	f.registerMetrics()
	fail := func(err error) (*File, error) {
		if lock != nil {
			lock.Close()
		}
		return nil, err
	}

	replayStart := time.Now()
	if data, err := os.ReadFile(filepath.Join(cfg.Dir, SnapshotName)); err == nil {
		var snap snapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			return fail(fmt.Errorf("store: corrupt snapshot %s: %w", SnapshotName, err))
		}
		f.mem.install(snap.NextID, snap.Finished, snap.Jobs)
		f.lsn, f.epoch = snap.LSN, snap.Epoch
	} else if !os.IsNotExist(err) {
		return fail(fmt.Errorf("store: %w", err))
	}

	// A rotated journal on disk means the previous process died (or
	// errored) mid-compaction: its records precede the live journal's and
	// may or may not be in the snapshot — idempotent replay covers both.
	_, prevRecs, err := f.replay(JournalPrevName)
	if err != nil {
		return fail(err)
	}
	good, applied, err := f.replay(JournalName)
	if err != nil {
		return fail(err)
	}
	f.replica = cfg.Replica
	if !cfg.Replica {
		// A primary re-queues whatever was running at crash time so the
		// service re-runs it. A replica must not: its view mirrors the
		// primary's, and the re-queue happens at Promote instead.
		f.mem.requeueRunning()
	}

	journal, err := os.OpenFile(filepath.Join(cfg.Dir, JournalName),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fail(fmt.Errorf("store: %w", err))
	}
	// Drop a torn tail before appending, or the partial line would fuse
	// with the next record and corrupt the journal mid-file.
	if err := journal.Truncate(good); err != nil {
		journal.Close()
		return fail(fmt.Errorf("store: truncating torn journal tail: %w", err))
	}
	f.journal = journal
	f.recs = applied
	if prevRecs > 0 || f.recs >= f.cfg.SnapshotEvery {
		// Fold everything into a fresh snapshot now, synchronously: Open
		// has no concurrent writers to stall, and it clears the rotated
		// journal so the background path starts from a clean slate.
		if err := f.compactInline(); err != nil {
			journal.Close()
			return fail(err)
		}
	}
	f.metrics.replaySeconds.Set(time.Since(replayStart).Seconds())
	return f, nil
}

// registerMetrics creates the store's instruments in cfg.Telemetry.
// GaugeFunc callbacks are rebound to this File, so the registry keeps
// reporting the live instance across reopens.
func (f *File) registerMetrics() {
	reg := f.cfg.Telemetry
	f.metrics = fileMetrics{
		records: reg.Counter("hypersolve_store_records_total",
			"Records appended to the write-ahead journal."),
		compactions: reg.Counter("hypersolve_store_compactions_total",
			"Snapshot compactions completed (background and inline)."),
		compactionSeconds: reg.Histogram("hypersolve_store_compaction_seconds",
			"Wall time of one snapshot compaction.", telemetry.DurationBuckets),
		fsyncSeconds: reg.Histogram("hypersolve_store_fsync_seconds",
			"Latency of one per-record journal fsync (only populated with Fsync on).", telemetry.FsyncBuckets),
		replaySeconds: reg.Gauge("hypersolve_store_replay_seconds",
			"Time Open spent replaying the snapshot and journals."),
	}
	reg.GaugeFunc("hypersolve_store_journal_records",
		"Records in the live journal since the last compaction.", func() float64 {
			f.mu.Lock()
			defer f.mu.Unlock()
			return float64(f.recs)
		})
	reg.GaugeFunc("hypersolve_store_journal_bytes",
		"Size of the live journal file.", func() float64 {
			fi, err := os.Stat(filepath.Join(f.cfg.Dir, JournalName))
			if err != nil {
				return 0
			}
			return float64(fi.Size())
		})
}

// replay applies one journal file to the in-memory view, stopping at the
// first incomplete or unparsable line. It returns the byte offset of the
// end of the last good record and how many records were applied; a missing
// file is zero records.
func (f *File) replay(name string) (good int64, applied int, err error) {
	data, err := os.ReadFile(filepath.Join(f.cfg.Dir, name))
	if os.IsNotExist(err) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, fmt.Errorf("store: %w", err)
	}
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			break // torn write: no terminating newline
		}
		var r wireRec
		if json.Unmarshal(data[:nl], &r) != nil {
			break // torn or corrupt record: discard it and everything after
		}
		f.applyRec(r.modern())
		good += int64(nl + 1)
		applied++
		data = data[nl+1:]
	}
	return good, applied, nil
}

// applyRec folds one journal record into the in-memory view and advances
// the replication cursor. Pre-LSN records (upgraded stores) are assigned
// the next sequence number; LSN'd records already reflected in the view
// (crash windows, replica catch-up) advance the cursor without mutating.
func (f *File) applyRec(r rec) {
	switch r.Op {
	case opSubmit:
		f.mem.restoreSubmit(r.ID, r.Spec, r.At)
	case opStart:
		_ = f.mem.Start(r.ID, r.At)
	case opFinish:
		_, _ = f.mem.Finish(r.ID, r.State, r.At, r.Error, r.Result)
	case opAnnotate:
		_ = f.mem.Annotate(r.ID, r.Key, r.Value)
	case opEpoch:
		if r.Epoch > f.epoch {
			f.epoch = r.Epoch
		}
	}
	if r.LSN == 0 {
		r.LSN = f.lsn + 1
	}
	if r.LSN > f.lsn {
		f.advance(r)
	}
}

// advance moves the cursor to r and retains it in the feed tail, dropping
// the oldest record once the tail is at its bound.
func (f *File) advance(r rec) {
	f.lsn = r.LSN
	if f.tail.Len() == 2*f.cfg.SnapshotEvery {
		f.tail.Pop()
	}
	f.tail.Push(r)
}

// write is the one path by which a primary mutates: under f.mu it refuses a
// closed or replica store, lets apply change the view and describe the
// change as a record, and logs the record. If logging fails the view stays
// ahead of the journal — it is authoritative for this process, the error
// reports the lost durability — except for an admission: the service
// rejects a submission that errors, so the job is taken back out of the
// view, where it would otherwise sit visible-but-unrunnable forever.
func (f *File) write(apply func() (rec, error)) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	if f.replica {
		return ErrReplica
	}
	r, err := apply()
	if err != nil {
		return err
	}
	err = f.append(r)
	if err != nil && r.Op == opSubmit {
		f.mem.rollbackSubmit(r.ID)
	}
	return err
}

// append stamps the next LSN on r and logs it. The record enters the feed
// tail only once the journal has it, so an error means it is not in the log
// at all: the cursor has not moved and Feed will never serve it. Callers
// hold f.mu.
func (f *File) append(r rec) error {
	r.LSN = f.lsn + 1
	if err := f.journalWrite(r); err != nil {
		return err
	}
	f.advance(r)
	f.compactIfDue()
	return nil
}

// journalWrite writes one LSN'd record to the journal, synced when the
// store is configured to. Callers hold f.mu.
func (f *File) journalWrite(r rec) error {
	data, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := f.journal.Write(append(data, '\n')); err != nil {
		return fmt.Errorf("store: journal append: %w", err)
	}
	if f.cfg.Fsync {
		syncStart := time.Now()
		if err := f.journal.Sync(); err != nil {
			return fmt.Errorf("store: journal sync: %w", err)
		}
		f.metrics.fsyncSeconds.Observe(time.Since(syncStart).Seconds())
	}
	f.metrics.records.Inc()
	f.recs++
	return nil
}

// compactIfDue starts a compaction once the live journal holds
// SnapshotEvery records: the journal is rotated aside and the snapshot
// write handed to a background goroutine, so the record that trips the
// threshold pays only the renames. A failed compaction is not that record's
// failure — the record is in the log — so the error is parked in
// compactErr and the next record retries. Callers hold f.mu.
func (f *File) compactIfDue() {
	if f.recs < f.cfg.SnapshotEvery || f.compacting {
		return
	}
	if f.retryInline {
		// The last background compaction failed and its rotated journal is
		// still on disk; a second rotation would orphan it. Pay the stall
		// and fold everything synchronously.
		f.compactErr = f.compactInline()
		f.retryInline = f.compactErr != nil
	} else if err := f.rotateAndCompact(); err != nil {
		f.compactErr = err
	}
}

// rotateAndCompact captures the view, rotates the live journal aside and
// spawns the background snapshot write. Callers hold f.mu; the critical
// section costs two renames, not a snapshot marshal.
func (f *File) rotateAndCompact() error {
	nextID, finished, jobs := f.mem.snapshotState()
	dir := f.cfg.Dir
	live := filepath.Join(dir, JournalName)
	prev := filepath.Join(dir, JournalPrevName)
	if err := os.Rename(live, prev); err != nil {
		return fmt.Errorf("store: rotating journal: %w", err)
	}
	fresh, err := os.OpenFile(live, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		// Roll the rotation back so the store keeps appending to a journal
		// that Open knows how to find.
		if rerr := os.Rename(prev, live); rerr != nil {
			return fmt.Errorf("store: rotation failed and could not be undone (%v): %w", rerr, err)
		}
		return fmt.Errorf("store: opening fresh journal: %w", err)
	}
	// Make the rename and the fresh journal's directory entry durable now:
	// records fsynced into the fresh journal must not be orphaned by a
	// power loss that forgets the rotation itself.
	if err := syncDir(dir); err != nil {
		fresh.Close()
		if rerr := os.Rename(prev, live); rerr != nil {
			return fmt.Errorf("store: rotation failed and could not be undone (%v): %w", rerr, err)
		}
		return err
	}
	rotated := f.journal
	f.journal = fresh
	f.recs = 0
	f.compacting = true
	go f.finishCompaction(rotated, snapshot{NextID: nextID, Finished: finished, Jobs: jobs, LSN: f.lsn, Epoch: f.epoch})
	return nil
}

// finishCompaction runs off the transition path: it settles the rotated
// journal, writes the captured view as the new snapshot and deletes the
// rotated journal. On failure the rotated journal stays behind — replay
// remains correct — and the next threshold crossing retries inline.
func (f *File) finishCompaction(rotated *os.File, snap snapshot) {
	if testHookCompacting != nil {
		testHookCompacting()
	}
	compactStart := time.Now()
	err := func() error {
		// Settle the rotated journal first: the snapshot must never be the
		// only durable copy of records the journal still owns.
		if err := rotated.Sync(); err != nil {
			rotated.Close()
			return fmt.Errorf("store: syncing rotated journal: %w", err)
		}
		if err := rotated.Close(); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if err := writeSnapshot(f.cfg.Dir, snap); err != nil {
			return err
		}
		if err := os.Remove(filepath.Join(f.cfg.Dir, JournalPrevName)); err != nil {
			return fmt.Errorf("store: removing rotated journal: %w", err)
		}
		return syncDir(f.cfg.Dir)
	}()

	f.mu.Lock()
	f.compacting = false
	f.compactErr = err
	if err != nil {
		f.retryInline = true
	} else {
		f.metrics.compactions.Inc()
		f.metrics.compactionSeconds.Observe(time.Since(compactStart).Seconds())
	}
	f.idle.Broadcast()
	f.mu.Unlock()
}

// compactInline writes the full current view to the snapshot and truncates
// both journals, all under f.mu — the synchronous fallback used by Open
// and by the retry path after a failed background compaction.
func (f *File) compactInline() error {
	compactStart := time.Now()
	nextID, finished, jobs := f.mem.snapshotState()
	if err := writeSnapshot(f.cfg.Dir, snapshot{NextID: nextID, Finished: finished, Jobs: jobs, LSN: f.lsn, Epoch: f.epoch}); err != nil {
		return err
	}
	if err := os.Remove(filepath.Join(f.cfg.Dir, JournalPrevName)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: removing rotated journal: %w", err)
	}
	if err := syncDir(f.cfg.Dir); err != nil {
		return err
	}
	if err := f.journal.Truncate(0); err != nil {
		return fmt.Errorf("store: truncating journal: %w", err)
	}
	f.recs = 0
	f.metrics.compactions.Inc()
	f.metrics.compactionSeconds.Observe(time.Since(compactStart).Seconds())
	return nil
}

// writeSnapshot persists snap via tmp-file + fsync + rename + dir sync, so
// a crash leaves either the old snapshot or the new one, never a torn mix.
func writeSnapshot(dir string, snap snapshot) error {
	path := filepath.Join(dir, SnapshotName)
	tmp := path + ".tmp"
	w, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err = snap.encode(bufio.NewWriter(w)); err == nil {
		err = w.Sync()
	}
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return syncDir(dir)
}

// encode writes the document json.Marshal(s) would, one job at a time:
// marshaling the history in one piece allocated several times its size per
// compaction, and that transient — not the view — set a durable node's
// resident size. Write errors stick to w until its Flush.
func (s snapshot) encode(w *bufio.Writer) error {
	enc := json.NewEncoder(w)
	fmt.Fprintf(w, `{"next_id":%d,"lsn":%d,"epoch":%d,"finished":`, s.NextID, s.LSN, s.Epoch)
	if err := enc.Encode(s.Finished); err != nil {
		return err
	}
	w.WriteString(`,"jobs":[`)
	for i := range s.Jobs {
		if i > 0 {
			w.WriteByte(',')
		}
		if err := enc.Encode(&s.Jobs[i].Job); err != nil {
			return err
		}
	}
	w.WriteString("]}\n")
	return w.Flush()
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: syncing %s: %w", dir, err)
	}
	return nil
}

// Submit implements Store.
func (f *File) Submit(spec json.RawMessage, at time.Time) (j Job, err error) {
	err = f.write(func() (rec, error) {
		j, err = f.mem.Submit(spec, at)
		return rec{Op: opSubmit, ID: j.ID, At: at, Spec: spec}, err
	})
	if err != nil {
		return Job{}, err
	}
	return j, nil
}

// Start implements Store.
func (f *File) Start(id int64, at time.Time) error {
	return f.write(func() (rec, error) {
		return rec{Op: opStart, ID: id, At: at}, f.mem.Start(id, at)
	})
}

// Finish implements Store.
func (f *File) Finish(id int64, state State, at time.Time, errMsg string, result json.RawMessage) (evicted []int64, err error) {
	err = f.write(func() (rec, error) {
		evicted, err = f.mem.Finish(id, state, at, errMsg, result)
		return rec{Op: opFinish, ID: id, At: at, State: state, Error: errMsg, Result: result}, err
	})
	return evicted, err
}

// Annotate implements Store.
func (f *File) Annotate(id int64, key string, value json.RawMessage) error {
	return f.write(func() (rec, error) {
		return rec{Op: opAnnotate, ID: id, Key: key, Value: value}, f.mem.Annotate(id, key, value)
	})
}

// Get implements Store, reading the in-memory view (never blocked by an
// in-flight compaction).
func (f *File) Get(id int64) (Job, bool) { return f.mem.Get(id) }

// List implements Store, reading the in-memory view (never blocked by an
// in-flight compaction).
func (f *File) List(states ...State) []Job { return f.mem.List(states...) }

// barrier waits for any in-flight background compaction to settle — the
// hook tests and Close use to observe a quiescent directory.
func (f *File) barrier() {
	f.mu.Lock()
	for f.compacting {
		f.idle.Wait()
	}
	f.mu.Unlock()
}

// Close waits out any in-flight compaction, then syncs and closes the
// journal and releases the directory lock. The in-memory view stays
// readable (Get/List), matching the Memory backend after a service
// shutdown. A compaction failure that no transition has surfaced yet is
// returned here.
func (f *File) Close() error {
	f.mu.Lock()
	for f.compacting {
		f.idle.Wait()
	}
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	pending := f.compactErr
	f.compactErr = nil
	f.mu.Unlock()

	if f.lock != nil {
		defer f.lock.Close()
	}
	if err := f.journal.Sync(); err != nil {
		f.journal.Close()
		return errors.Join(pending, fmt.Errorf("store: %w", err))
	}
	if err := f.journal.Close(); err != nil {
		return errors.Join(pending, fmt.Errorf("store: %w", err))
	}
	return pending
}
