package service

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"hypersolve/internal/sat"
	"hypersolve/internal/store"
	"hypersolve/internal/tracelog"
)

func openStore(t *testing.T, dir string) *store.File {
	t.Helper()
	st, err := store.Open(store.FileConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestRecoveryRerunsInterruptedJob is the tentpole acceptance check: a job
// that was running when the daemon died is re-queued by the next service
// and re-executed to a result bit-identical to an uninterrupted serial run.
func TestRecoveryRerunsInterruptedJob(t *testing.T) {
	suite, err := sat.GenerateSuite(sat.UF20Params(61))
	if err != nil {
		t.Fatal(err)
	}
	var cnf strings.Builder
	if err := sat.WriteDIMACS(&cnf, suite[0]); err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{
		Kind:         "sat",
		CNF:          cnf.String(),
		Topology:     "torus:8x8",
		Mapper:       "lbn",
		Seed:         13,
		RecordSeries: true,
	}

	// Stage the crash state directly in the store: the job was submitted
	// and started, and then the process died — no finish record exists.
	dir := t.TempDir()
	st := openStore(t, dir)
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	sj, err := st.Submit(raw, time.Now().UTC())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Start(sj.ID, time.Now().UTC()); err != nil {
		t.Fatal(err)
	}
	// Close writes no transition records, so the on-disk state is exactly
	// what a SIGKILL here would leave: submitted + started, never finished.
	// (It also releases the data-dir lock, which the kernel would do for a
	// dead process.)
	st.Close()

	s := New(Config{QueueDepth: 4, Workers: 1, Store: openStore(t, dir)})
	defer s.Close()
	done := waitState(t, s, sj.ID, StateDone, 30*time.Second)
	matchSerial(t, spec, done.Result)
	if done.Result.SAT == nil || !done.Result.SAT.Verified {
		t.Fatalf("re-run SAT payload = %+v, want verified", done.Result.SAT)
	}
}

// TestRecoveryRestoresHistoryAndQueue: terminal jobs survive a restart
// verbatim and a queued-at-crash job is executed by the new service.
func TestRecoveryRestoresHistoryAndQueue(t *testing.T) {
	dir := t.TempDir()
	s1 := New(Config{QueueDepth: 8, Workers: 1, Store: openStore(t, dir)})
	doneJob, err := s1.Submit(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	finished := waitState(t, s1, doneJob.ID.Seq, StateDone, 10*time.Second)
	s1.Close()

	// Stage a queued job the way a crash would leave it: appended to the
	// journal with no start/finish records. (Submitting via a live service
	// and killing it is inherently racy in-process; the store state is the
	// same either way.)
	st := openStore(t, dir)
	raw, err := json.Marshal(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	queued, err := st.Submit(raw, time.Now().UTC())
	if err != nil {
		t.Fatal(err)
	}
	st.Close() // crash-equivalent: no transition records written

	s2 := New(Config{QueueDepth: 8, Workers: 1, Store: openStore(t, dir)})
	defer s2.Close()

	// History: the done job is still there, result intact.
	got, ok := s2.Get(doneJob.ID.Seq)
	if !ok || got.State != StateDone || got.Result == nil {
		t.Fatalf("restored done job = %+v", got)
	}
	if !reflect.DeepEqual(got.Result, finished.Result) {
		t.Fatalf("restored result differs:\nbefore: %+v\nafter:  %+v", finished.Result, got.Result)
	}
	// Queue: the staged job runs to completion under the new service.
	rerun := waitState(t, s2, queued.ID, StateDone, 10*time.Second)
	if rerun.Result == nil || !rerun.Result.OK {
		t.Fatalf("recovered queued job result = %+v, want OK", rerun.Result)
	}
}

// TestRecoveryFailsUncompilableSpec: a recovered job whose persisted spec
// no longer compiles is marked failed instead of wedging the queue.
func TestRecoveryFailsUncompilableSpec(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	if _, err := st.Submit(json.RawMessage(`{"kind":"warp-drive"}`), time.Now().UTC()); err != nil {
		t.Fatal(err)
	}
	st.Close() // crash-equivalent: no transition records written

	s := New(Config{QueueDepth: 4, Workers: 1, Store: openStore(t, dir)})
	defer s.Close()
	j, ok := s.Get(1)
	if !ok {
		t.Fatal("staged job vanished")
	}
	if j.State != StateFailed || !strings.Contains(j.Error, "recovery") {
		t.Fatalf("uncompilable recovered job = %+v, want failed with recovery error", j)
	}
}

// TestRecoveredHistorySurvivesJSONRoundTrip guards the full path the CI
// smoke test exercises: a restored job serialises through the HTTP layer's
// encoder without losing its result payload.
func TestRecoveredHistorySurvivesJSONRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s1 := New(Config{QueueDepth: 4, Workers: 1, Store: openStore(t, dir)})
	job, err := s1.Submit(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s1, job.ID.Seq, StateDone, 10*time.Second)
	s1.Close()

	s2 := New(Config{QueueDepth: 4, Workers: 1, Store: openStore(t, dir)})
	defer s2.Close()
	got, _ := s2.Get(job.ID.Seq)
	data, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	var round Job
	if err := json.Unmarshal(data, &round); err != nil {
		t.Fatal(err)
	}
	if round.State != StateDone || round.Result == nil || round.Result.Value != float64(210) {
		t.Fatalf("round-tripped recovered job = %+v", round)
	}
	// Sanity: the data directory holds exactly the journal/snapshot layout
	// the README documents.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if name := e.Name(); name != store.JournalName && name != store.SnapshotName && name != store.LockName {
			t.Fatalf("unexpected file %s in data dir", filepath.Join(dir, name))
		}
	}
}

// TestRecoveryOfLegacyDataDirectory: a data directory written before the
// store's annotations were generic (../store/testdata/legacy — old journal
// ops, old snapshot fields, a crash mid-compaction) recovers to exactly
// what the commit that wrote it served from it: the job documents with
// their race ledgers, the trace documents over HTTP, and the job the crash
// caught running re-admitted under its own trace ID.
func TestRecoveryOfLegacyDataDirectory(t *testing.T) {
	const fixture = "../store/testdata/legacy"
	dir := t.TempDir()
	for _, name := range []string{store.SnapshotName, store.JournalPrevName, store.JournalName} {
		data, err := os.ReadFile(filepath.Join(fixture, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var parent []struct {
		Job   Job      `json:"job"`
		Trace JobTrace `json:"trace"`
	}
	data, err := os.ReadFile(filepath.Join(fixture, "parent", "service.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &parent); err != nil {
		t.Fatal(err)
	}

	s := New(Config{QueueDepth: 8, Workers: 1, Store: openStore(t, dir)})
	srv := httptest.NewServer(NewHandler(s))
	defer func() { srv.Close(); s.Close() }()
	client := &Client{Base: srv.URL}
	ctx := context.Background()

	races := 0
	for _, p := range parent {
		got, err := client.Get(ctx, p.Job.ID)
		if err != nil || !reflect.DeepEqual(got, p.Job) {
			t.Errorf("job %s = %+v (%v), the parent served %+v", p.Job.ID, got, err, p.Job)
		}
		jt, err := client.Trace(ctx, p.Job.ID)
		if err != nil || !reflect.DeepEqual(jt, p.Trace) {
			t.Errorf("trace of job %s = %+v (%v), the parent served %+v", p.Job.ID, jt, err, p.Trace)
		}
		if p.Job.Winner != "" {
			races++
			if len(p.Job.Attempts) != 3 {
				t.Errorf("fixture race %s has %d attempts, want 3", p.Job.ID, len(p.Job.Attempts))
			}
		}
	}
	if len(parent) != 4 || races != 2 {
		t.Fatalf("fixture holds %d finished jobs, %d of them races; want 4 and 2", len(parent), races)
	}

	sj, _ := s.store.Get(5)
	var persisted tracelog.Timeline
	if err := json.Unmarshal(sj.Annotation(annotationTrace), &persisted); err != nil || persisted.TraceID == "" {
		t.Fatalf("job 5's persisted timeline: %v (%s)", err, sj.Annotation(annotationTrace))
	}
	jt, err := client.Trace(ctx, JobID{Seq: 5})
	if err != nil || jt.TraceID != persisted.TraceID {
		t.Fatalf("re-admitted job's trace ID = %q (%v), want the pre-crash %q", jt.TraceID, err, persisted.TraceID)
	}
	if _, ok := spansByName(jt)["requeued"]; !ok || jt.State.Terminal() {
		t.Fatalf("job 5 is %s with spans %+v, want re-admitted with a requeued span", jt.State, jt.Spans)
	}
	if _, err := client.Cancel(ctx, JobID{Seq: 5}); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, 5, StateCancelled, 10*time.Second)
}
