package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// crash simulates process death for a live handle: the directory lock is
// released (as the kernel would on exit) but the journal is left unclosed
// and no records are written. Everything appended before the "crash" is
// already visible through the kernel.
func (f *File) crash() {
	if f.lock != nil {
		f.lock.Close()
		f.lock = nil
	}
}

// reopen opens a store on dir, crashing prev first (nil = initial open).
func reopen(t *testing.T, prev *File, dir string, cfg FileConfig) *File {
	t.Helper()
	if prev != nil {
		prev.crash()
	}
	cfg.Dir = dir
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestReplayEqualsPreCrashState is the satellite acceptance check: after a
// crash, snapshot+journal replay reconstructs exactly the state the live
// store held — terminal jobs verbatim, queued jobs verbatim.
func TestReplayEqualsPreCrashState(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, nil, dir, FileConfig{})

	for i := 1; i <= 3; i++ {
		j, err := s.Submit(spec(i), at(i))
		if err != nil {
			t.Fatal(err)
		}
		_ = s.Start(j.ID, at(i))
		if _, err := s.Finish(j.ID, StateDone, at(i+1), "", json.RawMessage(`{"ok":true}`)); err != nil {
			t.Fatal(err)
		}
	}
	failed, _ := s.Submit(spec(4), at(4))
	_ = s.Start(failed.ID, at(4))
	if _, err := s.Finish(failed.ID, StateFailed, at(5), "boom", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(spec(5), at(6)); err != nil { // still queued at crash
		t.Fatal(err)
	}
	before := s.List()

	crashed := reopen(t, s, dir, FileConfig{})
	if after := crashed.List(); !reflect.DeepEqual(before, after) {
		t.Fatalf("replayed state differs from pre-crash state:\nbefore: %+v\nafter:  %+v", before, after)
	}

	// New IDs continue after the recovered high-water mark.
	j, err := crashed.Submit(spec(6), at(7))
	if err != nil {
		t.Fatal(err)
	}
	if j.ID != 6 {
		t.Fatalf("post-recovery ID = %d, want 6", j.ID)
	}
}

// TestRunningJobRequeuedOnOpen: a job that was running at crash time comes
// back queued with its StartedAt cleared, ready for re-execution.
func TestRunningJobRequeuedOnOpen(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, nil, dir, FileConfig{})
	j, err := s.Submit(spec(1), at(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(j.ID, at(1)); err != nil {
		t.Fatal(err)
	}

	crashed := reopen(t, s, dir, FileConfig{})
	got, ok := crashed.Get(j.ID)
	if !ok {
		t.Fatal("running job lost across crash")
	}
	if got.State != StateQueued || !got.StartedAt.IsZero() {
		t.Fatalf("running-at-crash job = %+v, want queued with zero StartedAt", got)
	}
}

// TestTornTrailingRecordTolerated: a partial (torn) trailing journal line —
// with or without a newline — is discarded on open, the journal is
// truncated past it, and subsequent appends produce a clean journal.
func TestTornTrailingRecordTolerated(t *testing.T) {
	for _, tail := range []string{
		`{"op":"submit","id":2,"at":"2026-07-3`,        // torn mid-record, no newline
		`{"op":"submit","id":2,"at":"2026-07-3` + "\n", // corrupt line with newline
		"\x00\x00\x00\x00\n",                           // block of zeroes (common torn-write residue)
	} {
		dir := t.TempDir()
		s := reopen(t, nil, dir, FileConfig{})
		j, err := s.Submit(spec(1), at(0))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Finish(j.ID, StateCancelled, at(1), "", nil); err != nil {
			t.Fatal(err)
		}
		s.Close()

		journal := filepath.Join(dir, JournalName)
		f, err := os.OpenFile(journal, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(tail); err != nil {
			t.Fatal(err)
		}
		f.Close()

		recovered := reopen(t, s, dir, FileConfig{})
		got, ok := recovered.Get(1)
		if !ok || got.State != StateCancelled {
			t.Fatalf("tail %q: job 1 = %+v, want cancelled", tail, got)
		}
		if _, ok := recovered.Get(2); ok {
			t.Fatalf("tail %q: torn submit resurrected job 2", tail)
		}
		if _, err := recovered.Submit(spec(2), at(2)); err != nil {
			t.Fatal(err)
		}

		// The journal must replay cleanly again: the torn bytes are gone.
		final := reopen(t, recovered, dir, FileConfig{})
		if jobs := final.List(); len(jobs) != 2 {
			t.Fatalf("tail %q: final state = %+v, want 2 jobs", tail, jobs)
		}
	}
}

// TestSnapshotCompaction: the journal is truncated every SnapshotEvery
// records and the full state moves into the snapshot; recovery then starts
// from the snapshot, and the whole history survives.
func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, nil, dir, FileConfig{SnapshotEvery: 5})
	for i := 1; i <= 4; i++ {
		j, _ := s.Submit(spec(i), at(i))
		_ = s.Start(j.ID, at(i))
		if _, err := s.Finish(j.ID, StateDone, at(i), "", nil); err != nil {
			t.Fatal(err)
		}
	}
	// Compaction happens on a background goroutine; settle it before
	// inspecting the directory.
	s.barrier()
	// 12 records written at SnapshotEvery=5: at least two compactions.
	if _, err := os.Stat(filepath.Join(dir, SnapshotName)); err != nil {
		t.Fatalf("no snapshot after 12 records: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, JournalPrevName)); !os.IsNotExist(err) {
		t.Fatalf("rotated journal still present after compaction settled: %v", err)
	}
	info, err := os.Stat(filepath.Join(dir, JournalName))
	if err != nil {
		t.Fatal(err)
	}
	// The live journal holds only the records since the last compaction
	// (12 mod 5 = 2 records).
	if info.Size() > 2*300 {
		t.Fatalf("journal grew to %d bytes despite compaction", info.Size())
	}

	recovered := reopen(t, s, dir, FileConfig{SnapshotEvery: 5})
	jobs := recovered.List(StateDone)
	if len(jobs) != 4 {
		t.Fatalf("recovered %d done jobs, want 4", len(jobs))
	}
}

// TestStaleJournalReplaysIdempotently simulates the compaction crash
// window: the snapshot was renamed into place but the journal was not yet
// truncated, so every journal record is already reflected in the snapshot.
// Replay must converge to the same state, not double-apply.
func TestStaleJournalReplaysIdempotently(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, nil, dir, FileConfig{})
	j, _ := s.Submit(spec(1), at(0))
	_ = s.Start(j.ID, at(1))
	if _, err := s.Finish(j.ID, StateDone, at(2), "", json.RawMessage(`{"ok":true}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(spec(2), at(3)); err != nil {
		t.Fatal(err)
	}
	before := s.List()
	s.Close()

	// Hand-write the snapshot the crashed compaction would have left, with
	// the full journal still in place behind it.
	nextID, finished, jobs := s.mem.snapshotState()
	data, err := json.Marshal(snapshot{NextID: nextID, Finished: finished, Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, SnapshotName), data, 0o644); err != nil {
		t.Fatal(err)
	}

	recovered := reopen(t, s, dir, FileConfig{})
	if after := recovered.List(); !reflect.DeepEqual(before, after) {
		t.Fatalf("stale journal double-applied:\nbefore: %+v\nafter:  %+v", before, after)
	}
	if j, err := recovered.Submit(spec(3), at(4)); err != nil || j.ID != 3 {
		t.Fatalf("post-recovery submit = %+v, %v, want ID 3", j, err)
	}
}

// TestFsyncBackendWorks exercises the fsync-per-record path end to end.
func TestFsyncBackendWorks(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, nil, dir, FileConfig{Fsync: true})
	j, err := s.Submit(spec(1), at(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Finish(j.ID, StateDone, at(1), "", nil); err != nil {
		t.Fatal(err)
	}
	recovered := reopen(t, s, dir, FileConfig{Fsync: true})
	if got, ok := recovered.Get(j.ID); !ok || got.State != StateDone {
		t.Fatalf("fsync store lost job: %+v", got)
	}
}

// TestClosedStoreRejectsWrites: mutations after Close fail, reads keep
// working (mirroring the memory backend after a service shutdown).
func TestClosedStoreRejectsWrites(t *testing.T) {
	s := reopen(t, nil, t.TempDir(), FileConfig{})
	j, _ := s.Submit(spec(1), at(0))
	s.Close()
	if _, err := s.Submit(spec(2), at(1)); err == nil {
		t.Fatal("Submit after Close succeeded")
	}
	if err := s.Start(j.ID, at(1)); err == nil {
		t.Fatal("Start after Close succeeded")
	}
	if got, ok := s.Get(j.ID); !ok || got.ID != j.ID {
		t.Fatal("Get after Close failed")
	}
}

// TestDataDirLocked: a second store on the same data directory is refused
// while the first process (handle) holds the lock, and admitted once the
// holder dies or closes.
func TestDataDirLocked(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, nil, dir, FileConfig{})
	if _, err := Open(FileConfig{Dir: dir}); err == nil {
		t.Fatal("second Open on a locked data dir succeeded")
	}
	s.crash() // kernel releases the lock with the process
	again, err := Open(FileConfig{Dir: dir})
	if err != nil {
		t.Fatalf("Open after holder died: %v", err)
	}
	again.Close()
	// A graceful Close releases it too.
	third, err := Open(FileConfig{Dir: dir})
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	third.Close()
}

// TestSubmitRollsBackOnAppendFailure: a submission whose journal append
// fails must leave no trace — not in the view (the service rejects the
// submission, so a zombie queued job would stay visible forever), not in
// the feed (a standby that pulled it would keep it forever) and not in its
// ID (the next admission must not reuse it for a different spec).
func TestSubmitRollsBackOnAppendFailure(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, nil, dir, FileConfig{})
	live := s.journal
	s.journal, _ = os.Open(filepath.Join(dir, JournalName)) // read-only: every append fails
	if _, err := s.Submit(spec(1), at(0)); err == nil {
		t.Fatal("Submit with a dead journal succeeded")
	}
	if jobs := s.List(); len(jobs) != 0 {
		t.Fatalf("failed Submit left %+v in the view", jobs)
	}
	if _, ok := s.Get(1); ok {
		t.Fatal("failed Submit left job 1 gettable")
	}
	if _, lsn := s.ReplicationState(); lsn != 0 {
		t.Fatalf("failed Submit moved the cursor to %d", lsn)
	}

	// Re-arm the journal: the next admission gets a fresh ID, and it is the
	// only record a standby is ever served.
	s.journal.Close()
	s.journal = live
	j, err := s.Submit(spec(2), at(1))
	if err != nil {
		t.Fatal(err)
	}
	if j.ID != 2 {
		t.Fatalf("admission after a failed one got ID %d, want 2 (the failed ID stays burned)", j.ID)
	}
	r := reopen(t, nil, t.TempDir(), FileConfig{Replica: true})
	if res := syncReplica(t, s, r); res.Applied != 1 {
		t.Fatalf("standby applied %d records, want only the successful submit", res.Applied)
	}
	if !viewsEqual(s, r) {
		t.Fatalf("standby view %+v, want the primary's %+v", r.List(), s.List())
	}
	if _, ok := r.Get(1); ok {
		t.Fatal("standby holds the rolled-back job")
	}
	before := s.List()
	if after := reopen(t, s, dir, FileConfig{}).List(); !reflect.DeepEqual(before, after) {
		t.Fatalf("reopen after a rolled-back submit:\nbefore: %+v\nafter:  %+v", before, after)
	}
}

// TestTimesSurviveRoundTrip pins that timestamps compare equal (DeepEqual)
// across the JSON journal round trip — the replay-equality guarantees above
// depend on it.
func TestTimesSurviveRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, nil, dir, FileConfig{})
	now := time.Now().UTC() // UTC() strips the monotonic reading, as the service does
	j, err := s.Submit(spec(1), now)
	if err != nil {
		t.Fatal(err)
	}
	recovered := reopen(t, s, dir, FileConfig{})
	got, _ := recovered.Get(j.ID)
	if !reflect.DeepEqual(got.SubmittedAt, now) {
		t.Fatalf("SubmittedAt %#v != original %#v", got.SubmittedAt, now)
	}
}

// TestTransitionDuringCompactionDoesNotBlock is the satellite acceptance
// check for background compaction: while the compactor is held mid-write,
// submit/start/finish transitions must still complete — the snapshot write
// is off the journaling critical path.
func TestTransitionDuringCompactionDoesNotBlock(t *testing.T) {
	hold := make(chan struct{})
	entered := make(chan struct{}, 16)
	testHookCompacting = func() { entered <- struct{}{}; <-hold }
	t.Cleanup(func() { testHookCompacting = nil })

	dir := t.TempDir()
	s := reopen(t, nil, dir, FileConfig{SnapshotEvery: 3})
	j1, err := s.Submit(spec(1), at(0))
	if err != nil {
		t.Fatal(err)
	}
	_ = s.Start(j1.ID, at(1))
	if _, err := s.Finish(j1.ID, StateDone, at(2), "", nil); err != nil {
		t.Fatal(err)
	}
	<-entered // the compactor is now parked inside the snapshot write

	done := make(chan struct{})
	go func() {
		defer close(done)
		j2, err := s.Submit(spec(2), at(3))
		if err != nil {
			t.Error(err)
			return
		}
		_ = s.Start(j2.ID, at(4))
		if _, err := s.Finish(j2.ID, StateDone, at(5), "", nil); err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("transitions blocked behind an in-flight compaction")
	}
	before := s.List()
	close(hold)
	s.barrier()

	// Records appended during the compaction live in the fresh journal and
	// survive a crash + replay alongside the snapshot.
	recovered := reopen(t, s, dir, FileConfig{SnapshotEvery: 3})
	if after := recovered.List(); !reflect.DeepEqual(before, after) {
		t.Fatalf("state diverged across compaction + reopen:\nbefore: %+v\nafter:  %+v", before, after)
	}
}

// TestRotatedJournalReplayedOnOpen covers the crash window after the
// journal rotation but before the snapshot lands: the rotated journal's
// records must replay (before the live journal's) and fold into a fresh
// snapshot on the next Open.
func TestRotatedJournalReplayedOnOpen(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, nil, dir, FileConfig{})
	j1, err := s.Submit(spec(1), at(0))
	if err != nil {
		t.Fatal(err)
	}
	_ = s.Start(j1.ID, at(1))
	if _, err := s.Finish(j1.ID, StateDone, at(2), "", json.RawMessage(`{"ok":true}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(spec(2), at(3)); err != nil {
		t.Fatal(err)
	}
	before := s.List()
	s.Close()

	// Stage the crash layout by hand: the journal was rotated aside and the
	// process died before the compactor wrote the snapshot. The live
	// journal then received one more record — here, none (a fresh file).
	if err := os.Rename(filepath.Join(dir, JournalName), filepath.Join(dir, JournalPrevName)); err != nil {
		t.Fatal(err)
	}

	recovered := reopen(t, s, dir, FileConfig{})
	if after := recovered.List(); !reflect.DeepEqual(before, after) {
		t.Fatalf("rotated journal not replayed:\nbefore: %+v\nafter:  %+v", before, after)
	}
	// Open folded everything into a fresh snapshot and cleared the rotated
	// journal.
	if _, err := os.Stat(filepath.Join(dir, JournalPrevName)); !os.IsNotExist(err) {
		t.Fatalf("rotated journal survived recovery: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, SnapshotName)); err != nil {
		t.Fatalf("recovery wrote no snapshot: %v", err)
	}
	// IDs continue after the replayed high-water mark.
	if j, err := recovered.Submit(spec(3), at(4)); err != nil || j.ID != 3 {
		t.Fatalf("post-recovery submit = %+v, %v, want ID 3", j, err)
	}
}

// TestBackgroundCompactionConvergesUnderLoad hammers a tiny SnapshotEvery
// so rotations race transitions, then checks a reopen sees exactly the
// live state.
func TestBackgroundCompactionConvergesUnderLoad(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, nil, dir, FileConfig{SnapshotEvery: 2})
	for i := 1; i <= 30; i++ {
		j, err := s.Submit(spec(i), at(i))
		if err != nil {
			t.Fatal(err)
		}
		_ = s.Start(j.ID, at(i))
		if _, err := s.Finish(j.ID, StateDone, at(i+1), "", nil); err != nil {
			t.Fatal(err)
		}
	}
	before := s.List()
	s.barrier()
	recovered := reopen(t, s, dir, FileConfig{SnapshotEvery: 2})
	if after := recovered.List(); !reflect.DeepEqual(before, after) {
		t.Fatalf("state diverged under compaction load:\nbefore: %d jobs\nafter:  %d jobs", len(before), len(after))
	}
}

// raceEnabled is set under the race detector, which allocates on its own
// account and so blurs exact allocation counts.
var raceEnabled bool

// TestAppendAtTailBoundAllocatesNoMore: once the feed tail is at its bound
// an append evicts one record and stores one, in place. The slice the ring
// replaced reallocated and copied the whole tail (2*SnapshotEvery records) on
// every append from that point on — one more allocation than below the bound,
// which is exactly what this compares.
func TestAppendAtTailBoundAllocatesNoMore(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	const every = 64
	perAppend := func(tail int) float64 {
		s := reopen(t, nil, t.TempDir(), FileConfig{SnapshotEvery: every})
		j, err := s.Submit(spec(1), at(0))
		if err != nil {
			t.Fatal(err)
		}
		note := func() {
			if err := s.Annotate(j.ID, "k", json.RawMessage(`{"v":1}`)); err != nil {
				t.Fatal(err)
			}
		}
		// tail is a multiple of every, so the last append rotates the journal
		// and the measured ones (fewer than every) trigger no compaction;
		// each compactor is waited out so the next rotation is not skipped.
		for s.tail.Len() < tail {
			note()
			s.barrier()
		}
		if s.tail.Len() != tail || s.recs != 0 {
			t.Fatalf("set-up left tail %d (want %d), %d records in the journal (want 0)", s.tail.Len(), tail, s.recs)
		}
		return testing.AllocsPerRun(every/2, note)
	}
	below, at := perAppend(every), perAppend(2*every)
	if at != below {
		t.Fatalf("an append allocates %v times with the tail at its bound, %v below it", at, below)
	}
}

// TestSnapshotEncodeMatchesMarshal: the streamed snapshot is the document
// json.Marshal writes, field for field — checked with every field set, so
// one added to the struct and not to encode fails here.
func TestSnapshotEncodeMatchesMarshal(t *testing.T) {
	snap := snapshot{NextID: 7, Finished: []int64{2, 1}, LSN: 40, Epoch: 3, Jobs: []wireJob{
		{Job: Job{ID: 1, Spec: spec(1), State: StateDone, SubmittedAt: at(0), StartedAt: at(1), FinishedAt: at(2),
			Result: json.RawMessage(`{"ok":true}`), Annotations: []Annotation{{"k", blob("k", 1)}}}},
		{Job: Job{ID: 2, Spec: spec(2), State: StateFailed, SubmittedAt: at(3), FinishedAt: at(4), Error: "boom"}},
	}}
	for v, i := reflect.ValueOf(snap), 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("snapshot.%s is unset: extend this test", v.Type().Field(i).Name)
		}
	}
	var streamed bytes.Buffer
	if err := snap.encode(bufio.NewWriter(&streamed)); err != nil {
		t.Fatal(err)
	}
	marshaled, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var got, want any
	if err := json.Unmarshal(streamed.Bytes(), &got); err != nil {
		t.Fatalf("streamed snapshot is not JSON: %v\n%s", err, streamed.Bytes())
	}
	if err := json.Unmarshal(marshaled, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("streamed: %s\nmarshaled: %s", streamed.Bytes(), marshaled)
	}
}
