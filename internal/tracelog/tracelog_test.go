package tracelog

import (
	"encoding/json"
	"log/slog"
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

func TestMiddleware(t *testing.T) {
	const inbound = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	const inboundID = "4bf92f3577b34da6a3ce929d0e0e4736"
	minted := NewTraceContext()
	cases := []struct {
		name string
		// reqID and traceparent are the inbound headers ("" = absent).
		reqID, traceparent string
		// respTraceparent is set on the response by the handler, as the
		// cluster router does when it mints the trace for a submit.
		respTraceparent string
		nilLogger       bool
		// wantReqID "" means a freshly minted 16-hex ID.
		wantReqID string
		// wantCtxTrace is the trace ID the handler sees in its request
		// context, wantLogTrace the access record's trace_id ("" = none).
		wantCtxTrace, wantLogTrace string
	}{
		{name: "propagated", reqID: "req-abc", traceparent: inbound,
			wantReqID: "req-abc", wantCtxTrace: inboundID, wantLogTrace: inboundID},
		{name: "bare"},
		{name: "root hop", respTraceparent: minted.Traceparent(), wantLogTrace: minted.TraceID},
		{name: "nil logger", traceparent: inbound, nilLogger: true, wantCtxTrace: inboundID},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var sb strings.Builder
			l := slog.New(slog.NewJSONHandler(&sb, nil))
			if c.nilLogger {
				l = nil
			}
			var ctxTrace, reqIDInHandler string
			h := Middleware(l, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if tc, ok := FromContext(r.Context()); ok {
					ctxTrace = tc.TraceID
				}
				reqIDInHandler = w.Header().Get(RequestIDHeader)
				if c.respTraceparent != "" {
					w.Header().Set("traceparent", c.respTraceparent)
				}
				w.WriteHeader(http.StatusTeapot)
			}))
			req := httptest.NewRequest("GET", "/v1/jobs/7", nil)
			if c.reqID != "" {
				req.Header.Set(RequestIDHeader, c.reqID)
			}
			if c.traceparent != "" {
				req.Header.Set("traceparent", c.traceparent)
			}
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, req)

			reqID := rr.Header().Get(RequestIDHeader)
			if c.wantReqID != "" && reqID != c.wantReqID {
				t.Errorf("request id %q, want %q echoed", reqID, c.wantReqID)
			}
			if c.wantReqID == "" && !isHex(reqID, 16) {
				t.Errorf("generated request id %q, want 16 hex chars", reqID)
			}
			if reqIDInHandler != reqID {
				t.Errorf("handler saw request id %q, response carries %q", reqIDInHandler, reqID)
			}
			if ctxTrace != c.wantCtxTrace {
				t.Errorf("trace id in request context %q, want %q", ctxTrace, c.wantCtxTrace)
			}
			if c.nilLogger {
				return
			}
			var rec map[string]any
			if err := json.Unmarshal([]byte(sb.String()), &rec); err != nil {
				t.Fatalf("access log %q is not one JSON record: %v", sb.String(), err)
			}
			for k, want := range map[string]any{
				"level": "INFO", "msg": "http request", "method": "GET", "path": "/v1/jobs/7",
				"status": float64(http.StatusTeapot), "request_id": reqID,
			} {
				if rec[k] != want {
					t.Errorf("access log %s = %v, want %v", k, rec[k], want)
				}
			}
			if d, ok := rec["duration_ms"].(float64); !ok || d < 0 {
				t.Errorf("access log duration_ms = %v, want a non-negative number", rec["duration_ms"])
			}
			if got, _ := rec["trace_id"].(string); got != c.wantLogTrace {
				t.Errorf("access log trace_id %q, want %q", got, c.wantLogTrace)
			}
		})
	}
}
