// Package tracelog carries the fleet's request tracing: a per-job span
// timeline with monotonic span IDs, W3C traceparent propagation between
// processes, and an HTTP middleware that stamps a request ID and the
// inbound trace context on every request and writes one access-log record
// per request to a log/slog logger. The store persists timelines as opaque
// JSON alongside the job record, so traces survive crash recovery and ride
// the replication feed to standbys; tracelog owns the format so no other
// package has to parse it.
package tracelog

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// TraceContext is the wire-propagated identity of a trace: the 32-hex
// trace ID shared by every span in a job's timeline and the 16-hex span
// ID of the caller's active span (the remote parent). It round-trips
// through the W3C traceparent header.
type TraceContext struct {
	TraceID string `json:"trace_id"`
	SpanID  string `json:"span_id"`
}

// Valid reports whether tc carries a usable trace ID: 32 lowercase hex
// digits, not all zero (the W3C invalid sentinel).
func (tc TraceContext) Valid() bool {
	return isHex(tc.TraceID, 32) && tc.TraceID != strings.Repeat("0", 32)
}

// NewTraceContext mints a fresh trace context with random trace and
// span IDs.
func NewTraceContext() TraceContext {
	return TraceContext{TraceID: randHex(16), SpanID: randHex(8)}
}

// Traceparent renders tc as a W3C traceparent header value
// (version 00, sampled flag set). The span ID falls back to a fresh
// random ID when unset, since the header requires one.
func (tc TraceContext) Traceparent() string {
	span := tc.SpanID
	if !isHex(span, 16) {
		span = randHex(8)
	}
	return "00-" + tc.TraceID + "-" + span + "-01"
}

// ParseTraceparent decodes a W3C traceparent header value. It accepts
// any version byte (per spec, unknown versions are parsed as 00) and
// rejects malformed or all-zero IDs.
func ParseTraceparent(s string) (TraceContext, bool) {
	parts := strings.Split(strings.TrimSpace(s), "-")
	if len(parts) < 4 {
		return TraceContext{}, false
	}
	if !isHex(parts[0], 2) || parts[0] == "ff" {
		return TraceContext{}, false
	}
	tc := TraceContext{TraceID: strings.ToLower(parts[1]), SpanID: strings.ToLower(parts[2])}
	if !tc.Valid() || !isHex(tc.SpanID, 16) || tc.SpanID == strings.Repeat("0", 16) {
		return TraceContext{}, false
	}
	return tc, true
}

func isHex(s string, n int) bool {
	if len(s) != n {
		return false
	}
	for i := 0; i < n; i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func randHex(nbytes int) string {
	b := make([]byte, nbytes)
	rand.Read(b)
	return hex.EncodeToString(b)
}

type ctxKey struct{}

// NewContext returns a context carrying tc; FromContext retrieves it.
// The service client injects a traceparent header from any context that
// carries a trace context, which is how trace IDs cross process hops.
func NewContext(ctx context.Context, tc TraceContext) context.Context {
	return context.WithValue(ctx, ctxKey{}, tc)
}

// FromContext extracts the trace context installed by NewContext.
func FromContext(ctx context.Context) (TraceContext, bool) {
	tc, ok := ctx.Value(ctxKey{}).(TraceContext)
	return tc, ok && tc.Valid()
}

// FromRequest parses the request's traceparent header, returning the
// zero TraceContext when the header is absent or malformed. Handlers
// call this directly so propagation works with or without middleware.
func FromRequest(r *http.Request) TraceContext {
	tc, _ := ParseTraceparent(r.Header.Get("traceparent"))
	return tc
}

// Span is one timed operation in a trace. IDs are small integers,
// monotonic within their trace; Parent is zero for top-level spans.
// Top-level spans in a job timeline are sequential and non-overlapping
// (compile → admission → queue → run), so their durations sum to at
// most the job's total elapsed time; children (e.g. the journal append
// inside admission) nest within their parent.
type Span struct {
	ID     int64     `json:"id"`
	Parent int64     `json:"parent,omitempty"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end,omitzero"`
	// DurationMs is End-Start in milliseconds, recomputed at marshal
	// time; zero-duration instantaneous spans (e.g. requeued) keep 0.
	DurationMs  float64        `json:"duration_ms"`
	Attrs       map[string]any `json:"attrs,omitempty"`
	Annotations []Annotation   `json:"annotations,omitempty"`
}

// Annotation is a timestamped note attached to a span — the run span
// collects one per observer publish ("step 1048576, 42 queued").
type Annotation struct {
	At   time.Time `json:"at"`
	Text string    `json:"text"`
}

// Timeline is the serialized form of a trace: what the store persists
// alongside the job record and what GET /v1/jobs/{id}/trace returns.
type Timeline struct {
	TraceID string `json:"trace_id"`
	// Parent is the remote caller's span ID when the trace was started
	// from a propagated traceparent (empty for locally-rooted traces).
	Parent string `json:"parent_span,omitempty"`
	Spans  []Span `json:"spans,omitempty"`
}

// Trace is a live, mutex-guarded span timeline for one job. Span IDs
// are assigned monotonically from 1. All methods are safe for
// concurrent use and safe on a nil *Trace (no-ops), so instrumentation
// points never need guards.
type Trace struct {
	mu     sync.Mutex
	id     string
	parent string
	next   int64
	spans  []*Span
}

// NewTrace starts a trace adopting tc's trace ID when valid (recording
// tc's span ID as the remote parent) and minting a fresh ID otherwise.
func NewTrace(tc TraceContext) *Trace {
	t := &Trace{next: 1}
	if tc.Valid() {
		t.id = tc.TraceID
		t.parent = tc.SpanID
	} else {
		t.id = randHex(16)
	}
	return t
}

// Resume reconstructs a live trace from a persisted timeline, keeping
// the original trace ID so post-recovery spans link to the pre-crash
// ones. Spans left open by the crash are closed at the resume instant —
// their duration genuinely includes the downtime. Returns an error if
// data is not a timeline.
func Resume(data []byte) (*Trace, error) {
	var tl Timeline
	if err := json.Unmarshal(data, &tl); err != nil {
		return nil, fmt.Errorf("tracelog: resume: %w", err)
	}
	if tl.TraceID == "" {
		return nil, errors.New("tracelog: resume: timeline has no trace id")
	}
	t := &Trace{id: tl.TraceID, parent: tl.Parent, next: 1}
	now := time.Now().UTC()
	for i := range tl.Spans {
		sp := tl.Spans[i]
		if sp.End.IsZero() {
			sp.End = now
		}
		if sp.ID >= t.next {
			t.next = sp.ID + 1
		}
		t.spans = append(t.spans, &sp)
	}
	return t, nil
}

// StartSpan opens a top-level span and returns its ID.
func (t *Trace) StartSpan(name string) int64 { return t.StartChild(name, 0) }

// StartChild opens a span nested under parent (zero for top-level) and
// returns its ID.
func (t *Trace) StartChild(name string, parent int64) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.next
	t.next++
	t.spans = append(t.spans, &Span{ID: id, Parent: parent, Name: name, Start: time.Now().UTC()})
	return id
}

// EndSpan closes the span; later calls for the same ID are no-ops.
func (t *Trace) EndSpan(id int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if sp := t.findLocked(id); sp != nil && sp.End.IsZero() {
		sp.End = time.Now().UTC()
	}
}

// EndOpen closes every span still open — called when a job reaches a
// terminal state, so a cancel-while-queued still yields a closed queue
// span.
func (t *Trace) EndOpen() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Now().UTC()
	for _, sp := range t.spans {
		if sp.End.IsZero() {
			sp.End = now
		}
	}
}

// SetAttr attaches a key/value to the span.
func (t *Trace) SetAttr(id int64, key string, value any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if sp := t.findLocked(id); sp != nil {
		if sp.Attrs == nil {
			sp.Attrs = make(map[string]any)
		}
		sp.Attrs[key] = value
	}
}

// Annotate appends a timestamped note to the span.
func (t *Trace) Annotate(id int64, text string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if sp := t.findLocked(id); sp != nil {
		sp.Annotations = append(sp.Annotations, Annotation{At: time.Now().UTC(), Text: text})
	}
}

// AddInstant records a zero-duration marker span (e.g. "requeued"
// after a crash-recovery re-admission).
func (t *Trace) AddInstant(name string, attrs map[string]any) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.next
	t.next++
	now := time.Now().UTC()
	t.spans = append(t.spans, &Span{ID: id, Name: name, Start: now, End: now, Attrs: attrs})
	return id
}

func (t *Trace) findLocked(id int64) *Span {
	if id == 0 {
		return nil
	}
	for _, sp := range t.spans {
		if sp.ID == id {
			return sp
		}
	}
	return nil
}

// Timeline snapshots the trace into its serializable form, with spans
// ordered by ID and durations computed.
func (t *Trace) Timeline() Timeline {
	if t == nil {
		return Timeline{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tl := Timeline{TraceID: t.id, Parent: t.parent, Spans: make([]Span, 0, len(t.spans))}
	for _, sp := range t.spans {
		cp := *sp
		cp.Annotations = append([]Annotation(nil), sp.Annotations...)
		if len(sp.Attrs) > 0 {
			cp.Attrs = make(map[string]any, len(sp.Attrs))
			for k, v := range sp.Attrs {
				cp.Attrs[k] = v
			}
		}
		if !cp.End.IsZero() {
			cp.DurationMs = float64(cp.End.Sub(cp.Start).Microseconds()) / 1000
		}
		tl.Spans = append(tl.Spans, cp)
	}
	sort.Slice(tl.Spans, func(i, j int) bool { return tl.Spans[i].ID < tl.Spans[j].ID })
	return tl
}

// JSON marshals the current timeline; the service persists this blob
// through the store so the trace survives restarts and replication.
func (t *Trace) JSON() json.RawMessage {
	if t == nil {
		return nil
	}
	b, err := json.Marshal(t.Timeline())
	if err != nil {
		return nil
	}
	return b
}

// AppendSpan parses a persisted timeline, appends one closed span
// (keeping IDs monotonic) and re-marshals it. The replica store uses
// this to record its replication-apply span without knowing the
// timeline format.
func AppendSpan(data json.RawMessage, name string, start, end time.Time) (json.RawMessage, error) {
	var tl Timeline
	if err := json.Unmarshal(data, &tl); err != nil {
		return nil, fmt.Errorf("tracelog: append span: %w", err)
	}
	if tl.TraceID == "" {
		return nil, errors.New("tracelog: append span: no trace id")
	}
	var next int64 = 1
	for _, sp := range tl.Spans {
		if sp.ID >= next {
			next = sp.ID + 1
		}
	}
	sp := Span{ID: next, Name: name, Start: start.UTC(), End: end.UTC()}
	sp.DurationMs = float64(sp.End.Sub(sp.Start).Microseconds()) / 1000
	tl.Spans = append(tl.Spans, sp)
	return json.Marshal(tl)
}
