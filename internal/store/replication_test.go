package store

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"
)

// pump drives n submit→start→finish cycles through a primary.
func pump(t *testing.T, p *File, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		j, err := p.Submit(spec(i), at(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Start(j.ID, at(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Finish(j.ID, StateDone, at(i), "", nil); err != nil {
			t.Fatal(err)
		}
	}
}

// sync pulls feed pages from p into r until the replica's LSN matches the
// primary's, returning the last result.
func syncReplica(t *testing.T, p, r *File) FeedResult {
	t.Helper()
	var last FeedResult
	for {
		_, lsn := r.ReplicationState()
		page, err := p.Feed(lsn+1, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.ApplyFeed(page, nil)
		if err != nil {
			t.Fatal(err)
		}
		last = res
		if _, rl := r.ReplicationState(); rl >= res.SourceLSN {
			return last
		}
	}
}

// viewsEqual compares the full job views of two stores.
func viewsEqual(a, b *File) bool {
	return reflect.DeepEqual(a.List(), b.List())
}

// TestReplicationTailShipping: a replica tailing the primary's feed
// converges to an identical view, record by record, and re-applying a page
// is a no-op.
func TestReplicationTailShipping(t *testing.T) {
	p := reopen(t, nil, t.TempDir(), FileConfig{})
	r := reopen(t, nil, t.TempDir(), FileConfig{Replica: true})
	pump(t, p, 7)

	res := syncReplica(t, p, r)
	if res.Snapshot {
		t.Fatal("caught-up replica was reset from a snapshot; want record shipping")
	}
	if !viewsEqual(p, r) {
		t.Fatalf("replica view diverged:\nprimary %+v\nreplica %+v", p.List(), r.List())
	}
	pe, pl := p.ReplicationState()
	re, rl := r.ReplicationState()
	if pe != re || pl != rl {
		t.Fatalf("replication state diverged: primary (%d,%d) replica (%d,%d)", pe, pl, re, rl)
	}

	// Re-applying the same page must change nothing.
	page, err := p.Feed(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err = r.ApplyFeed(page, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 0 {
		t.Fatalf("re-applied page folded %d records, want 0", res.Applied)
	}
}

// TestReplicationSnapshotBootstrap: a replica whose cursor predates the
// primary's tail (here: explicit from=0, and a tail trimmed by compaction)
// is reset from a full snapshot and still converges.
func TestReplicationSnapshotBootstrap(t *testing.T) {
	// SnapshotEvery 4 → tail cap 8: 30 records overrun it, so a from-zero
	// bootstrap must take the snapshot path.
	p := reopen(t, nil, t.TempDir(), FileConfig{SnapshotEvery: 4})
	pump(t, p, 10)
	p.barrier()

	r := reopen(t, nil, t.TempDir(), FileConfig{Replica: true})
	res := syncReplica(t, p, r)
	if !viewsEqual(p, r) {
		t.Fatalf("replica view diverged after bootstrap:\nprimary %+v\nreplica %+v", p.List(), r.List())
	}
	_ = res

	// The replica's directory is durable: a reopen in replica mode keeps
	// the state and cursor.
	r2 := reopen(t, r, r.cfg.Dir, FileConfig{Replica: true})
	if !viewsEqual(p, r2) {
		t.Fatal("replica view lost across reopen")
	}
	pe, pl := p.ReplicationState()
	re, rl := r2.ReplicationState()
	if pe != re || pl != rl {
		t.Fatalf("replication cursor lost across reopen: primary (%d,%d) replica (%d,%d)", pe, pl, re, rl)
	}
}

// TestReplicaIsReadOnly: direct mutations on a replica are rejected until
// Promote, and ApplyFeed is rejected on a primary.
func TestReplicaIsReadOnly(t *testing.T) {
	p := reopen(t, nil, t.TempDir(), FileConfig{})
	r := reopen(t, nil, t.TempDir(), FileConfig{Replica: true})
	if _, err := r.Submit(spec(1), at(1)); !errors.Is(err, ErrReplica) {
		t.Fatalf("Submit on replica = %v, want ErrReplica", err)
	}
	if err := r.Start(1, at(1)); !errors.Is(err, ErrReplica) {
		t.Fatalf("Start on replica = %v, want ErrReplica", err)
	}
	if _, err := r.Finish(1, StateDone, at(1), "", nil); !errors.Is(err, ErrReplica) {
		t.Fatalf("Finish on replica = %v, want ErrReplica", err)
	}
	page, err := r.Feed(1, 0) // replicas may serve feeds (chaining)...
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.ApplyFeed(page, nil); !errors.Is(err, ErrNotReplica) { // ...but primaries must never apply one
		t.Fatalf("ApplyFeed on primary = %v, want ErrNotReplica", err)
	}
}

// TestPromoteRequeuesAndWrites: promotion bumps the epoch, re-queues jobs
// the primary left running, flips the store writable, and all of it
// survives a restart.
func TestPromoteRequeuesAndWrites(t *testing.T) {
	p := reopen(t, nil, t.TempDir(), FileConfig{})
	j1, _ := p.Submit(spec(1), at(1))
	_ = p.Start(j1.ID, at(1)) // running at "crash"
	j2, _ := p.Submit(spec(2), at(2))
	_ = j2 // queued at "crash"

	r := reopen(t, nil, t.TempDir(), FileConfig{Replica: true})
	syncReplica(t, p, r)
	if job, _ := r.Get(j1.ID); job.State != StateRunning {
		t.Fatalf("replica mirrors job 1 as %s, want running (no premature requeue)", job.State)
	}

	epoch, requeued, err := r.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 {
		t.Fatalf("promoted epoch = %d, want 1", epoch)
	}
	if len(requeued) != 1 || requeued[0] != j1.ID {
		t.Fatalf("requeued = %v, want [%d]", requeued, j1.ID)
	}
	if r.replica {
		t.Fatal("store still replica after Promote")
	}
	// Promote again: idempotent, same epoch.
	if e2, _, err := r.Promote(); err != nil || e2 != epoch {
		t.Fatalf("second Promote = (%d, %v), want (%d, nil)", e2, err, epoch)
	}
	// Writable now.
	if err := r.Start(j1.ID, at(3)); err != nil {
		t.Fatalf("Start after promote: %v", err)
	}
	if _, err := r.Finish(j1.ID, StateDone, at(3), "", nil); err != nil {
		t.Fatalf("Finish after promote: %v", err)
	}

	// Epoch survives restart (now as an ordinary primary).
	r2 := reopen(t, r, r.cfg.Dir, FileConfig{})
	if e, _ := r2.ReplicationState(); e != epoch {
		t.Fatalf("epoch after reopen = %d, want %d", e, epoch)
	}
}

// TestFeedFencesStaleEpoch: after a promotion, a page from the old (lower
// epoch) primary is refused with ErrFenced — the split-brain guard.
func TestFeedFencesStaleEpoch(t *testing.T) {
	old := reopen(t, nil, t.TempDir(), FileConfig{})
	pump(t, old, 2)
	promoted := reopen(t, nil, t.TempDir(), FileConfig{Replica: true})
	syncReplica(t, old, promoted)
	if _, _, err := promoted.Promote(); err != nil {
		t.Fatal(err)
	}
	// Simulate a misconfigured re-follow of the stale primary: demote the
	// promoted store back to replica via a fresh replica on the same
	// concept — here we just apply the stale feed to a replica that has
	// seen the higher epoch.
	fresh := reopen(t, nil, t.TempDir(), FileConfig{Replica: true})
	page, err := promoted.Feed(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.ApplyFeed(page, nil); err != nil {
		t.Fatal(err)
	}
	stalePage, err := old.Feed(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.ApplyFeed(stalePage, nil); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale-epoch page applied = %v, want ErrFenced", err)
	}
}

// TestFeedSnapshotCarriesResults: results and errors round-trip through a
// snapshot bootstrap byte for byte.
func TestFeedSnapshotCarriesResults(t *testing.T) {
	p := reopen(t, nil, t.TempDir(), FileConfig{})
	j, _ := p.Submit(spec(9), at(1))
	_ = p.Start(j.ID, at(1))
	result := json.RawMessage(`{"ok":true,"value":41}`)
	if _, err := p.Finish(j.ID, StateDone, at(2), "", result); err != nil {
		t.Fatal(err)
	}
	r := reopen(t, nil, t.TempDir(), FileConfig{Replica: true})
	syncReplica(t, p, r)
	got, ok := r.Get(j.ID)
	if !ok || string(got.Result) != string(result) {
		t.Fatalf("replicated result = %s (found %v), want %s", got.Result, ok, result)
	}
}

// TestFeedGapDetected: a page that skips ahead of the replica's cursor is
// an explicit error, not a silent hole.
func TestFeedGapDetected(t *testing.T) {
	r := reopen(t, nil, t.TempDir(), FileConfig{Replica: true})
	page, _ := json.Marshal(feedPage{Epoch: 0, LSN: 5, Records: []wireRec{
		{rec: rec{Op: opSubmit, LSN: 5, ID: 1, At: at(1), Spec: spec(1)}},
	}})
	if _, err := r.ApplyFeed(page, nil); err == nil {
		t.Fatal("gapped page applied cleanly")
	}
}

// TestLSNStableAcrossCompactionAndReopen: compaction and restarts must not
// rewind or re-number the stream a replica is tailing.
func TestLSNStableAcrossCompactionAndReopen(t *testing.T) {
	dir := t.TempDir()
	p := reopen(t, nil, dir, FileConfig{SnapshotEvery: 5})
	pump(t, p, 4) // 12 records: two compactions
	p.barrier()
	if _, lsn := p.ReplicationState(); lsn != 12 {
		t.Fatalf("lsn after 12 records = %d", lsn)
	}
	p2 := reopen(t, p, dir, FileConfig{SnapshotEvery: 5})
	if _, lsn := p2.ReplicationState(); lsn != 12 {
		t.Fatalf("lsn after reopen = %d, want 12", lsn)
	}
	pump(t, p2, 1)
	if _, lsn := p2.ReplicationState(); lsn != 15 {
		t.Fatalf("lsn after 3 more records = %d, want 15", lsn)
	}
}
