package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"hypersolve/internal/store"
)

// journalRec is the slice of a journal line these tests read.
type journalRec struct {
	Op    string          `json:"op"`
	Key   string          `json:"key"`
	Value json.RawMessage `json:"value"`
}

func readJournal(t *testing.T, dir string) []journalRec {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, store.JournalName))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var recs []journalRec
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var r journalRec
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("journal line %q: %v", sc.Text(), err)
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestSoloJobOutputShape pins what a mapper job leaves behind now that it
// runs as a one-attempt race: exactly five journal records (the fsync fleet
// pays a sync for each), exactly the five trace spans with the step count on
// run, and a job document without race fields.
func TestSoloJobOutputShape(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{QueueDepth: 4, Workers: 1, Store: openStore(t, dir)})
	defer s.Close()
	job, err := s.Submit(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, s, job.ID.Seq, StateDone, 10*time.Second)

	var ops []string
	for _, r := range readJournal(t, dir) {
		ops = append(ops, strings.TrimSuffix(r.Op+":"+r.Key, ":"))
	}
	if want := []string{"submit", "annotate:trace", "start", "finish", "annotate:trace"}; !reflect.DeepEqual(ops, want) {
		t.Fatalf("solo job journaled %v, want %v", ops, want)
	}

	jt, ok := s.Trace(job.ID.Seq)
	if !ok {
		t.Fatal("no trace for the finished job")
	}
	var names []string
	for _, sp := range jt.Spans {
		names = append(names, sp.Name)
		if sp.End.IsZero() {
			t.Errorf("span %q left open", sp.Name)
		}
	}
	sort.Strings(names)
	if want := []string{"admission", "compile", "journal", "queue", "run"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("solo job trace has spans %v, want %v", names, want)
	}
	if attrs := spansByName(jt)["run"].Attrs; len(attrs) != 1 || attrs["steps"] == nil {
		t.Fatalf("run span attrs = %v, want exactly the step count", attrs)
	}

	doc, err := json.Marshal(done)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(doc, &fields); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"attempts", "winner"} {
		if _, present := fields[key]; present {
			t.Errorf("solo job document carries %q: %s", key, doc)
		}
	}
}

// TestRaceJournalsLedger is the other side of the shape: a three-way race
// journals its attempt ledger, and the last ledger written names one winner
// and records the two losers cancelled.
func TestRaceJournalsLedger(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{QueueDepth: 4, Workers: 3, Store: openStore(t, dir)})
	defer s.Close()
	spec := satSpec(t, 41)
	spec.Portfolio = []string{"rr", "lbn", "weighted"}
	job, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, job.ID.Seq, StateDone, 30*time.Second)

	var last json.RawMessage
	for _, r := range readJournal(t, dir) {
		if r.Op == "annotate" && r.Key == annotationAttempts {
			last = r.Value
		}
	}
	if last == nil {
		t.Fatal("race journaled no attempts record")
	}
	var doc attemptsDoc
	if err := json.Unmarshal(last, &doc); err != nil {
		t.Fatal(err)
	}
	winners, cancelled := 0, 0
	for _, a := range doc.Attempts {
		switch {
		case a.Winner && a.State == StateDone && a.Strategy == doc.Winner:
			winners++
		case a.State == StateCancelled:
			cancelled++
		}
	}
	if len(doc.Attempts) != 3 || winners != 1 || cancelled != 2 {
		t.Fatalf("final ledger %s, want one winner and two cancelled", last)
	}
	jt, _ := s.Trace(job.ID.Seq)
	if _, ok := spansByName(jt)["attempt"]; !ok {
		t.Fatalf("race trace has no attempt span: %+v", jt.Spans)
	}
}

// TestRecoveryIgnoresRemovedEngineField: journals written while specs could
// carry "engine" must still recover. Recovery decodes the stored spec
// leniently, so the field is dropped and the job runs to the result the
// spec without it produces.
func TestRecoveryIgnoresRemovedEngineField(t *testing.T) {
	spec := quickSpec()
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	old := append([]byte(`{"engine":"sweep",`), raw[1:]...)
	dir := t.TempDir()
	st := openStore(t, dir)
	sj, err := st.Submit(old, time.Now().UTC())
	if err != nil {
		t.Fatal(err)
	}
	st.Close() // crash-equivalent: the job is still queued on disk

	s := New(Config{QueueDepth: 4, Workers: 1, Store: openStore(t, dir)})
	defer s.Close()
	done := waitState(t, s, sj.ID, StateDone, 10*time.Second)
	matchSerial(t, spec, done.Result)
}

// TestSubmitRejectsRemovedEngineField: over HTTP the removed field is an
// unknown field like any other — a 400 that names it.
func TestSubmitRejectsRemovedEngineField(t *testing.T) {
	srv, _ := newTestServer(t, Config{QueueDepth: 2, Workers: 1})
	resp, err := srv.Client().Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"sum","n":4,"engine":"sweep"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(body, []byte(`unknown field \"engine\"`)) {
		t.Fatalf(`POST with "engine": status %d body %s, want 400 naming the unknown field`, resp.StatusCode, body)
	}
}
