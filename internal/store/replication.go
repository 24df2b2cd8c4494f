package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"hypersolve/internal/ringbuf"
)

// Replication turns the File store's write-ahead journal into a shipping
// stream: every record carries a monotonic LSN, a primary serves pages of
// records from any LSN (falling back to a full-state snapshot when the
// request predates its in-memory tail), and a replica-mode store applies
// those pages idempotently through the same machinery Open uses for
// replay. Promotion flips a replica to read-write and bumps the store's
// epoch — the fencing token that keeps a stale primary's stream from ever
// being applied over a promoted replica's history.

// Sentinel errors of the replication paths.
var (
	// ErrReplica rejects direct mutations on a replica-mode store; the
	// only write path before Promote is ApplyFeed.
	ErrReplica = errors.New("store: replica is read-only (promote it first)")
	// ErrNotReplica rejects ApplyFeed on a read-write store: applying a
	// foreign stream over a primary's own history is how split-brain
	// starts.
	ErrNotReplica = errors.New("store: not a replica")
	// ErrFenced rejects a feed page whose source epoch is older than the
	// replica's own — the source is a stale primary that was failed over.
	ErrFenced = errors.New("store: feed source fenced (stale epoch)")
)

// DefaultFeedLimit is the page size applied when Feed is called with
// limit <= 0.
const DefaultFeedLimit = 1024

// feedPage is the wire shape of one GET /v1/replication/journal response.
// Exactly one of Snapshot or Records is meaningful: a snapshot bootstraps
// (or resets) the replica to the source's full state as of LSN, records
// extend a caught-up replica contiguously.
type feedPage struct {
	// Epoch and LSN describe the source at serving time.
	Epoch int64 `json:"epoch"`
	LSN   int64 `json:"lsn"`
	// Snapshot is the source's full state, sent when the requested cursor
	// predates the source's in-memory tail (or overruns its history).
	Snapshot *snapshot `json:"snapshot,omitempty"`
	// Records are journal records from the requested LSN, in order.
	Records []wireRec `json:"records,omitempty"`
}

// FeedResult summarises one applied feed page.
type FeedResult struct {
	// SourceEpoch and SourceLSN are the primary's fencing epoch and last
	// LSN as of the page; SourceLSN minus the replica's own LSN is the
	// replication lag in records.
	SourceEpoch int64
	SourceLSN   int64
	// Applied counts records folded in by this page (snapshot installs
	// count as one).
	Applied int
	// Snapshot reports that the page reset the replica from a full
	// snapshot rather than extending it record by record.
	Snapshot bool
}

// Feed serves one replication page: journal records from LSN `from`
// onwards (at most limit; <= 0 selects DefaultFeedLimit), or — when `from`
// predates the in-memory tail or overruns the history, including the
// explicit reset request from=0 — the full current state as a snapshot.
// The page is returned JSON-encoded, ready to be served as the
// /v1/replication/journal response body.
func (f *File) Feed(from int64, limit int) ([]byte, error) {
	if limit <= 0 {
		limit = DefaultFeedLimit
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, ErrClosed
	}
	page := feedPage{Epoch: f.epoch, LSN: f.lsn}
	if base := f.lsn - int64(f.tail.Len()); from <= base || from > f.lsn+1 {
		nextID, finished, jobs := f.mem.snapshotState()
		page.Snapshot = &snapshot{NextID: nextID, Finished: finished, Jobs: jobs, LSN: f.lsn, Epoch: f.epoch}
	} else {
		first := int(from - base - 1)
		page.Records = make([]wireRec, min(limit, f.tail.Len()-first))
		for i := range page.Records {
			page.Records[i].rec = f.tail.At(first + i)
		}
	}
	data, err := json.Marshal(page)
	if err != nil {
		return nil, fmt.Errorf("store: encoding feed page: %w", err)
	}
	return data, nil
}

// ApplyFeed folds one JSON-encoded feed page (as served by Feed on the
// primary) into a replica-mode store: a snapshot page replaces the whole
// view (and is persisted immediately — snapshot written, journal
// truncated), record pages are journaled, LSNs preserved, and applied
// through the replay machinery, so the replica's directory is a faithful
// copy the next Open (or a promotion) can build on. Records at or below the
// replica's LSN are skipped — re-applying a page is a no-op.
//
// arrive, when non-nil, sees every annotation a record page delivers and
// returns the value the replica keeps: the layer that owns a key can mark
// its copy as replicated. Such a record diverges from the primary's by
// exactly that value; LSNs are untouched.
//
// A page from a source whose epoch is behind the replica's own fails with
// ErrFenced: after a failover the old primary's stream must never be
// applied over the promoted history.
func (f *File) ApplyFeed(data []byte, arrive func(key string, value json.RawMessage) json.RawMessage) (FeedResult, error) {
	var page feedPage
	if err := json.Unmarshal(data, &page); err != nil {
		return FeedResult{}, fmt.Errorf("store: decoding feed page: %w", err)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	res := FeedResult{SourceEpoch: page.Epoch, SourceLSN: page.LSN}
	if f.closed {
		return res, ErrClosed
	}
	if !f.replica {
		return res, ErrNotReplica
	}
	// A snapshot page installs the snapshot's own epoch: fence on that one.
	epoch := page.Epoch
	if page.Snapshot != nil {
		epoch = page.Snapshot.Epoch
	}
	if epoch < f.epoch {
		return res, fmt.Errorf("%w: source epoch %d < local epoch %d", ErrFenced, epoch, f.epoch)
	}
	if page.Snapshot != nil {
		// Wait out any in-flight background compaction: the inline persist
		// below rewrites the same files it is touching.
		for f.compacting {
			f.idle.Wait()
		}
		f.mem.install(page.Snapshot.NextID, page.Snapshot.Finished, page.Snapshot.Jobs)
		f.lsn, f.epoch = page.Snapshot.LSN, page.Snapshot.Epoch
		f.tail = ringbuf.Ring[rec]{}
		res.Applied, res.Snapshot = 1, true
		return res, f.compactInline()
	}
	for _, w := range page.Records {
		r := w.modern()
		if r.LSN <= f.lsn {
			continue // already applied (page overlap or replayed at Open)
		}
		if r.LSN != f.lsn+1 {
			return res, fmt.Errorf("store: feed gap: record lsn %d after local lsn %d (re-sync from 0)", r.LSN, f.lsn)
		}
		if r.Op == opAnnotate && arrive != nil {
			r.Value = arrive(r.Key, r.Value)
		}
		if err := f.journalWrite(r); err != nil {
			return res, err
		}
		f.applyRec(r)
		f.compactIfDue()
		res.Applied++
	}
	return res, nil
}

// Promote flips a replica-mode store to read-write: the fencing epoch is
// bumped and journaled, and jobs the dead primary left running are
// re-queued exactly as Open's crash recovery does, ready for a service to
// re-admit. It returns the new epoch and the re-queued job IDs. Promoting
// a store that is already read-write is a no-op reporting the current
// epoch, so a retried promotion converges instead of fencing itself.
func (f *File) Promote() (epoch int64, requeued []int64, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, nil, ErrClosed
	}
	if !f.replica {
		return f.epoch, nil, nil
	}
	f.replica = false
	f.epoch++
	// A journal write failure degrades durability, not the promotion: the
	// in-memory epoch is authoritative for this process, matching the
	// other transition paths.
	err = f.append(rec{Op: opEpoch, Epoch: f.epoch, At: time.Now().UTC()})
	return f.epoch, f.mem.requeueRunning(), err
}

// ReplicationState reports the store's fencing epoch and last applied LSN.
func (f *File) ReplicationState() (epoch, lsn int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch, f.lsn
}
