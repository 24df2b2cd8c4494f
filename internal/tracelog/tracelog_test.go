package tracelog

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tc := NewTraceContext()
	if !tc.Valid() {
		t.Fatalf("fresh context invalid: %+v", tc)
	}
	got, ok := ParseTraceparent(tc.Traceparent())
	if !ok {
		t.Fatalf("parse of %q failed", tc.Traceparent())
	}
	if got != tc {
		t.Fatalf("round trip mismatch: %+v != %+v", got, tc)
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	bad := []string{
		"",
		"00-abc-def-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // all-zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // all-zero span id
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // forbidden version
		"00-4BF92F3577B34DA6A3CE929D0E0E473G-00f067aa0ba902b7-01",
	}
	for _, s := range bad {
		if _, ok := ParseTraceparent(s); ok {
			t.Errorf("ParseTraceparent(%q) accepted", s)
		}
	}
	// Future versions with extra fields parse.
	if tc, ok := ParseTraceparent("01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra"); !ok || tc.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("future-version traceparent rejected: %+v ok=%v", tc, ok)
	}
}

func TestTraceSpanLifecycle(t *testing.T) {
	tr := NewTrace(TraceContext{})
	compile := tr.StartSpan("compile")
	tr.EndSpan(compile)
	adm := tr.StartSpan("admission")
	j := tr.StartChild("journal", adm)
	tr.EndSpan(j)
	tr.EndSpan(adm)
	run := tr.StartSpan("run")
	tr.SetAttr(run, "steps", int64(42))
	tr.Annotate(run, "step 42, 0 queued")
	tr.AddInstant("requeued", nil)
	tr.EndOpen()

	tl := tr.Timeline()
	if tl.TraceID == "" || len(tl.TraceID) != 32 {
		t.Fatalf("bad trace id %q", tl.TraceID)
	}
	if len(tl.Spans) != 5 {
		t.Fatalf("want 5 spans, got %d", len(tl.Spans))
	}
	byName := map[string]Span{}
	for i, sp := range tl.Spans {
		if sp.ID != int64(i+1) {
			t.Errorf("span %d has id %d, want monotonic from 1", i, sp.ID)
		}
		if sp.End.IsZero() {
			t.Errorf("span %s left open after EndOpen", sp.Name)
		}
		byName[sp.Name] = sp
	}
	if byName["journal"].Parent != byName["admission"].ID {
		t.Errorf("journal parent = %d, want %d", byName["journal"].Parent, byName["admission"].ID)
	}
	if v, ok := byName["run"].Attrs["steps"]; !ok || v != int64(42) {
		t.Errorf("run attrs = %v", byName["run"].Attrs)
	}
	if len(byName["run"].Annotations) != 1 {
		t.Errorf("run annotations = %v", byName["run"].Annotations)
	}
}

func TestTraceAdoptsPropagatedID(t *testing.T) {
	tc, _ := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	tr := NewTrace(tc)
	if tr.ID() != tc.TraceID {
		t.Fatalf("trace id %q, want adopted %q", tr.ID(), tc.TraceID)
	}
	if tl := tr.Timeline(); tl.Parent != tc.SpanID {
		t.Fatalf("parent span %q, want %q", tl.Parent, tc.SpanID)
	}
}

func TestResumeClosesOpenSpansAndLinksIDs(t *testing.T) {
	tr := NewTrace(TraceContext{})
	tr.EndSpan(tr.StartSpan("compile"))
	tr.StartSpan("queue") // left open, as after a crash
	data := tr.JSON()

	resumed, err := Resume(data)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.ID() != tr.ID() {
		t.Fatalf("resumed trace id %q != original %q", resumed.ID(), tr.ID())
	}
	resumed.AddInstant("requeued", nil)
	tl := resumed.Timeline()
	if len(tl.Spans) != 3 {
		t.Fatalf("want 3 spans, got %d", len(tl.Spans))
	}
	for _, sp := range tl.Spans {
		if sp.End.IsZero() {
			t.Errorf("span %s still open after resume", sp.Name)
		}
	}
	if tl.Spans[2].Name != "requeued" || tl.Spans[2].ID != 3 {
		t.Errorf("requeued span = %+v, want id 3", tl.Spans[2])
	}
}

func TestAppendSpan(t *testing.T) {
	tr := NewTrace(TraceContext{})
	tr.EndSpan(tr.StartSpan("run"))
	start := time.Now().Add(-time.Millisecond)
	out, err := AppendSpan(tr.JSON(), "replica_apply", start, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	var tl Timeline
	if err := json.Unmarshal(out, &tl); err != nil {
		t.Fatal(err)
	}
	if len(tl.Spans) != 2 || tl.Spans[1].Name != "replica_apply" || tl.Spans[1].ID != 2 {
		t.Fatalf("appended timeline = %+v", tl)
	}
	if tl.Spans[1].DurationMs <= 0 {
		t.Fatalf("replica_apply duration %v, want > 0", tl.Spans[1].DurationMs)
	}
	if _, err := AppendSpan([]byte(`{"nope":1}`), "x", start, time.Now()); err == nil {
		t.Fatal("AppendSpan accepted timeline without trace id")
	}
}

func TestNilTraceIsNoOp(t *testing.T) {
	var tr *Trace
	id := tr.StartSpan("x")
	tr.EndSpan(id)
	tr.SetAttr(id, "k", 1)
	tr.Annotate(id, "note")
	tr.AddInstant("y", nil)
	tr.EndOpen()
	if tr.ID() != "" || tr.JSON() != nil {
		t.Fatal("nil trace produced data")
	}
}

func TestLoggerJSONFormat(t *testing.T) {
	var sb strings.Builder
	l := New(&sb, LevelInfo, FormatJSON)
	l.log(LevelDebug, "hidden", nil)
	l.Info("probe failed", A("backend", "http://x"), A("fails", 3))
	line := sb.String()
	if strings.Contains(line, "hidden") {
		t.Fatal("debug record written at info level")
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(strings.TrimSpace(line)), &rec); err != nil {
		t.Fatalf("log line not JSON: %q: %v", line, err)
	}
	for k, want := range map[string]any{"level": "info", "msg": "probe failed", "backend": "http://x", "fails": float64(3)} {
		if rec[k] != want {
			t.Errorf("rec[%q] = %v, want %v", k, rec[k], want)
		}
	}
	if _, err := time.Parse(time.RFC3339Nano, rec["ts"].(string)); err != nil {
		t.Errorf("bad ts %v: %v", rec["ts"], err)
	}
}

func TestLoggerTextFormatAndNil(t *testing.T) {
	var sb strings.Builder
	l := New(&sb, LevelDebug, FormatText)
	l.Warn("lag high", A("lsn", 17), A("note", "two words"))
	line := sb.String()
	for _, want := range []string{"WARN", "\"lag high\"", "lsn=17", `note="two words"`} {
		if !strings.Contains(line, want) {
			t.Errorf("text line %q missing %q", line, want)
		}
	}
	var nilLogger *Logger
	nilLogger.Info("ignored") // must not panic
	if nilLogger.Enabled(LevelError) {
		t.Fatal("nil logger claims enabled")
	}
}

func TestParseLevelAndFormat(t *testing.T) {
	if lv, err := ParseLevel("WARN"); err != nil || lv != LevelWarn {
		t.Fatalf("ParseLevel(WARN) = %v, %v", lv, err)
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Fatal("ParseLevel(loud) accepted")
	}
	if f, err := ParseFormat("json"); err != nil || f != FormatJSON {
		t.Fatalf("ParseFormat(json) = %v, %v", f, err)
	}
	if _, err := ParseFormat("xml"); err == nil {
		t.Fatal("ParseFormat(xml) accepted")
	}
}

func TestMiddleware(t *testing.T) {
	var sb strings.Builder
	l := New(&sb, LevelInfo, FormatJSON)
	var gotTC TraceContext
	var gotOK bool
	var reqIDInHandler string
	h := Middleware(l, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotTC, gotOK = FromContext(r.Context())
		reqIDInHandler = w.Header().Get(RequestIDHeader)
		w.WriteHeader(http.StatusTeapot)
	}))

	// Inbound request id + traceparent are propagated.
	req := httptest.NewRequest("GET", "/v1/jobs/7", nil)
	req.Header.Set(RequestIDHeader, "req-abc")
	req.Header.Set("traceparent", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if got := rr.Header().Get(RequestIDHeader); got != "req-abc" {
		t.Fatalf("request id not echoed: %q", got)
	}
	if reqIDInHandler != "req-abc" {
		t.Fatalf("request id not visible to handler: %q", reqIDInHandler)
	}
	if !gotOK || gotTC.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("trace context not in request context: %+v ok=%v", gotTC, gotOK)
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(strings.TrimSpace(sb.String())), &rec); err != nil {
		t.Fatalf("access log not JSON: %v", err)
	}
	if rec["status"] != float64(http.StatusTeapot) || rec["trace_id"] != gotTC.TraceID || rec["request_id"] != "req-abc" {
		t.Fatalf("access log record = %v", rec)
	}

	// Absent request id is generated; absent traceparent leaves context bare.
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
	if rid := rr.Header().Get(RequestIDHeader); len(rid) != 16 {
		t.Fatalf("generated request id %q, want 16 hex chars", rid)
	}
	if gotOK {
		t.Fatal("trace context present without traceparent header")
	}
}
