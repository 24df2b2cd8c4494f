package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"hypersolve/internal/tracelog"
)

// TestTraceEndToEnd submits a job over HTTP with a caller-minted
// traceparent and checks the /trace surface: the service adopts the
// caller's trace ID, records the full span taxonomy (compile → admission
// with its journal-free child set → queue → run), and the top-level span
// durations fit inside the wall-clock window the client observed.
func TestTraceEndToEnd(t *testing.T) {
	_, client := newTestServer(t, Config{QueueDepth: 8, Workers: 2})
	tc := tracelog.NewTraceContext()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ctx = tracelog.NewContext(ctx, tc)

	before := time.Now()
	job, err := client.Submit(ctx, JobSpec{Kind: "queens", N: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Wait(ctx, job.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(before)

	jt, err := client.Trace(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if jt.TraceID != tc.TraceID {
		t.Fatalf("trace ID = %s, want the caller's %s", jt.TraceID, tc.TraceID)
	}
	if jt.Parent != tc.SpanID {
		t.Fatalf("trace parent = %s, want the caller's span %s", jt.Parent, tc.SpanID)
	}
	spans := spansByName(jt)
	var total time.Duration
	for _, name := range []string{"compile", "admission", "queue", "run"} {
		sp, ok := spans[name]
		if !ok {
			t.Fatalf("trace lacks span %q: %+v", name, jt.Spans)
		}
		if sp.End.IsZero() || sp.End.Before(sp.Start) {
			t.Fatalf("span %q not closed cleanly: start=%v end=%v", name, sp.Start, sp.End)
		}
		total += sp.End.Sub(sp.Start)
	}
	if total > elapsed {
		t.Fatalf("top-level span durations sum to %v, beyond the observed wall clock %v", total, elapsed)
	}
	if spans["run"].Attrs["steps"] == nil {
		t.Fatalf("run span lacks the steps attribute: %+v", spans["run"])
	}
	// Span IDs are monotonic and the journal span (if any, memory stores
	// journal too via the same path) parents under admission.
	for i := 1; i < len(jt.Spans); i++ {
		if jt.Spans[i].ID <= jt.Spans[i-1].ID {
			t.Fatalf("span IDs not monotonic: %+v", jt.Spans)
		}
	}
	if j, ok := spans["journal"]; ok && j.Parent != spans["admission"].ID {
		t.Fatalf("journal span parent = %d, want admission %d", j.Parent, spans["admission"].ID)
	}
}

// TestTraceUnknownJob is the 404 contract of the trace endpoint.
func TestTraceUnknownJob(t *testing.T) {
	srv, _ := newTestServer(t, Config{QueueDepth: 2, Workers: 1})
	resp, err := http.Get(srv.URL + "/v1/jobs/999/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET trace of unknown job = %d, want 404", resp.StatusCode)
	}
}

// TestTraceSurvivesRestart stages a crash (submitted + started, trace
// journaled, no finish record) and checks the next service's re-run
// resumes the original trace ID, closes the dangling spans, and records
// the requeued instant plus a fresh run span.
func TestTraceSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	raw, err := json.Marshal(JobSpec{Kind: "queens", N: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sj, err := st.Submit(raw, time.Now().UTC())
	if err != nil {
		t.Fatal(err)
	}
	// The trace a SubmitTraced would have journaled: caller-rooted, with
	// the queue span still open at the moment of death.
	tc := tracelog.NewTraceContext()
	tr := tracelog.NewTrace(tc)
	tr.EndSpan(tr.StartSpan("compile"))
	tr.EndSpan(tr.StartSpan("admission"))
	tr.StartSpan("queue")
	if err := st.Annotate(sj.ID, annotationTrace, tr.JSON()); err != nil {
		t.Fatal(err)
	}
	if err := st.Start(sj.ID, time.Now().UTC()); err != nil {
		t.Fatal(err)
	}
	st.Close()

	s := New(Config{QueueDepth: 4, Workers: 1, Store: openStore(t, dir)})
	defer s.Close()
	waitState(t, s, sj.ID, StateDone, 30*time.Second)

	jt, ok := s.Trace(sj.ID)
	if !ok {
		t.Fatal("recovered job has no trace")
	}
	if jt.TraceID != tc.TraceID {
		t.Fatalf("recovered trace ID = %s, want the original %s", jt.TraceID, tc.TraceID)
	}
	spans := spansByName(jt)
	if _, ok := spans["requeued"]; !ok {
		t.Fatalf("recovered trace lacks the requeued span: %+v", jt.Spans)
	}
	if _, ok := spans["run"]; !ok {
		t.Fatalf("recovered trace lacks the re-run's run span: %+v", jt.Spans)
	}
	// The pre-crash queue span was left open; Resume must have closed it.
	for _, sp := range jt.Spans {
		if sp.End.IsZero() {
			t.Fatalf("span %q still open after the terminal re-run: %+v", sp.Name, sp)
		}
	}
}

// TestWriteErrorCarriesRequestID checks the 5xx error body contract: when
// the middleware stamped a request ID on the response, a server error
// body echoes it so client and server logs correlate.
func TestWriteErrorCarriesRequestID(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteError(w, http.StatusInternalServerError, ErrStore)
	})
	srv := httptest.NewServer(tracelog.Middleware(nil, inner))
	defer srv.Close()

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/boom", nil)
	req.Header.Set(tracelog.RequestIDHeader, "req-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get(tracelog.RequestIDHeader); got != "req-42" {
		t.Fatalf("request ID header = %q, want the caller's req-42", got)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["request_id"] != "req-42" {
		t.Fatalf("5xx body = %v, want request_id req-42", body)
	}
	if body["error"] == "" {
		t.Fatalf("5xx body lacks the error message: %v", body)
	}
}

func spansByName(jt JobTrace) map[string]tracelog.Span {
	m := make(map[string]tracelog.Span, len(jt.Spans))
	for _, sp := range jt.Spans {
		m[sp.Name] = sp
	}
	return m
}
