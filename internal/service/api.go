package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"hypersolve/internal/telemetry"
	"hypersolve/internal/tracelog"
)

// Health is the /healthz payload: a liveness verdict plus queue occupancy
// and the node's headline gauges. The cluster router folds these into
// GET /v1/cluster, so what a probe sees here is what the fleet reports.
type Health struct {
	Status     string        `json:"status"`
	QueueDepth int           `json:"queue_depth"`
	Workers    int           `json:"workers"`
	Jobs       map[State]int `json:"jobs"`
	// Queued is the live admission-queue occupancy (distinct from
	// QueueDepth, the configured bound).
	Queued int `json:"queued"`
	// StepsPerSec is the aggregate simulator stepping rate over running
	// jobs (see Service.StepsPerSec).
	StepsPerSec float64 `json:"steps_per_sec,omitempty"`
	// ReplicationLag is how many records this standby trails its primary
	// by; only set on a standby's health report.
	ReplicationLag int64 `json:"replication_lag,omitempty"`
	// Version is the build identity stamped into the binary
	// (internal/version), "dev (unknown)" for unstamped builds.
	Version string `json:"version,omitempty"`
}

// MaxSpecBytes bounds a submitted job spec (the CNF text dominates; 64 MiB
// covers every SATLIB-scale instance with two orders of magnitude to
// spare). Oversized bodies are rejected with HTTP 413; the cluster router
// applies the same bound.
const MaxSpecBytes = 64 << 20

// jobAPI is what the HTTP job routes are written over: a running *Service,
// or a standby's read-only view of its replica store (node.go), whose
// mutations fail with ErrStandby.
type jobAPI interface {
	SubmitTraced(spec JobSpec, tc tracelog.TraceContext) (Job, error)
	Get(id int64) (Job, bool)
	List(states ...State) []Job
	Trace(id int64) (JobTrace, bool)
	Subscribe(id int64) (<-chan Progress, func(), error)
	Cancel(id int64) (Job, error)
	Health() Health
	Telemetry() *telemetry.Registry
}

// NewHandler wraps a job API in its HTTP JSON surface:
//
//	POST   /v1/jobs             submit a JobSpec  → 202 Job (429 when the queue is full)
//	GET    /v1/jobs             list jobs         → 200 []Job; ?state= filters
//	GET    /v1/jobs/{id}        fetch one job     → 200 Job
//	GET    /v1/jobs/{id}/events stream progress   → 200 text/event-stream (SSE)
//	DELETE /v1/jobs/{id}        cancel a job      → 200 Job (409 when already terminal)
//	GET    /healthz             liveness + queue occupancy
//	GET    /metrics             Prometheus text exposition of the service registry
//
// The list filter accepts repeated and comma-separated values
// (?state=done&state=failed, ?state=queued,running); an unknown state is a
// 400. Errors are returned as {"error": "..."} with the matching status
// code.
func NewHandler(s jobAPI) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		spec, ok := ReadJobSpec(w, r)
		if !ok {
			return
		}
		// Adopt the caller's trace ID (the router forwards its own via
		// traceparent) so one trace spans the whole submit path; without
		// the header, mint the context here and echo it — exactly like the
		// router — so the submitter learns its trace ID from the response
		// and the access log tags this hop with it.
		tc := tracelog.FromRequest(r)
		if !tc.Valid() {
			tc = tracelog.NewTraceContext()
			w.Header().Set("traceparent", tc.Traceparent())
		}
		job, err := s.SubmitTraced(spec, tc)
		if err != nil {
			WriteError(w, submitStatus(err), err)
			return
		}
		WriteJSON(w, http.StatusAccepted, job)
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		states, err := StatesFromQuery(r)
		if err != nil {
			WriteError(w, http.StatusBadRequest, err)
			return
		}
		WriteJSON(w, http.StatusOK, s.List(states...))
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, ok := pathID(w, r)
		if !ok {
			return
		}
		job, found := s.Get(id)
		if !found {
			WriteError(w, http.StatusNotFound, ErrNotFound)
			return
		}
		WriteJSON(w, http.StatusOK, job)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		id, ok := pathID(w, r)
		if !ok {
			return
		}
		jt, found := s.Trace(id)
		if !found {
			WriteError(w, http.StatusNotFound, ErrNotFound)
			return
		}
		WriteJSON(w, http.StatusOK, jt)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		id, ok := pathID(w, r)
		if !ok {
			return
		}
		ch, cancel, err := s.Subscribe(id)
		switch {
		case errors.Is(err, ErrNotFound):
			WriteError(w, http.StatusNotFound, err)
			return
		case err != nil:
			// The fan-out bound (shed this subscriber, keep the solve), or
			// a standby asked for a live stream.
			WriteError(w, http.StatusServiceUnavailable, err)
			return
		}
		defer cancel()
		ServeEvents(w, r, ch)
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, ok := pathID(w, r)
		if !ok {
			return
		}
		job, err := s.Cancel(id)
		switch {
		case errors.Is(err, ErrNotFound):
			WriteError(w, http.StatusNotFound, err)
		case errors.Is(err, ErrFinished):
			WriteError(w, http.StatusConflict, err)
		case errors.Is(err, ErrStandby):
			WriteError(w, http.StatusServiceUnavailable, err)
		case err != nil:
			WriteError(w, http.StatusInternalServerError, err)
		default:
			WriteJSON(w, http.StatusOK, job)
		}
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, s.Health())
	})
	mux.HandleFunc("GET /metrics", MetricsHandler(s.Telemetry()))
	return mux
}

// MetricsHandler serves a telemetry registry in Prometheus text
// exposition format. Shared by the daemon handler, the replication
// node's outer mux (so standbys are scrapable too) and the cluster
// router's own-series path.
func MetricsHandler(reg *telemetry.Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WriteText(w)
	}
}

// ReadJobSpec decodes a JobSpec request body, bounded by MaxSpecBytes and
// rejecting unknown fields. On failure it writes the API error response
// itself (413 for oversized bodies, 400 otherwise) and reports !ok. The
// daemon handler and the cluster router share it, so admission semantics
// cannot diverge between serve and route modes.
func ReadJobSpec(w http.ResponseWriter, r *http.Request) (JobSpec, bool) {
	var spec JobSpec
	// Bound the request body: admission control is pointless if one
	// oversized spec can exhaust memory before it reaches the queue.
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		WriteError(w, status, fmt.Errorf("decoding job spec: %w", err))
		return JobSpec{}, false
	}
	// The body must be exactly one JSON document. Decode reads one value and
	// stops, so `{...}{...}` or `{...}junk` would otherwise be admitted with
	// the trailing content silently dropped — a concatenated batch the
	// sender meant as several jobs would quietly run as one.
	if err := dec.Decode(new(json.RawMessage)); !errors.Is(err, io.EOF) {
		WriteError(w, http.StatusBadRequest,
			errors.New("decoding job spec: trailing data after the JSON document"))
		return JobSpec{}, false
	}
	return spec, true
}

// ServeEvents writes a progress channel to the client as server-sent
// events: `event: progress` frames while the job runs, a final `event: end`
// frame carrying the terminal snapshot, each with a JSON-encoded Progress
// as its data line. The stream ends when the channel closes (the job went
// terminal) or the client disconnects. Shared by the daemon handler and the
// cluster router's subscriber-facing side so the wire format cannot
// diverge.
func ServeEvents(w http.ResponseWriter, r *http.Request, ch <-chan Progress) {
	fl, ok := w.(http.Flusher)
	if !ok {
		WriteError(w, http.StatusInternalServerError,
			errors.New("service: response writer does not support streaming"))
		return
	}
	SetEventStreamHeaders(w)
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case p, ok := <-ch:
			if !ok {
				return
			}
			if err := WriteEvent(w, p); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

// SetEventStreamHeaders marks a response as a server-sent event stream and
// disables intermediary buffering.
func SetEventStreamHeaders(w http.ResponseWriter) {
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
}

// WriteEvent writes one SSE frame: the event name derives from the
// snapshot's state (`progress` while running, `end` once terminal).
func WriteEvent(w io.Writer, p Progress) error {
	name := "progress"
	if p.State.Terminal() {
		name = "end"
	}
	data, err := json.Marshal(p)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, data)
	return err
}

// StatesFromQuery parses the list filter's ?state= values, accepting
// repeated and comma-separated forms (?state=done&state=failed,
// ?state=queued,running). An unknown state name is an error (the
// handlers' 400).
func StatesFromQuery(r *http.Request) ([]State, error) {
	var states []State
	for _, raw := range r.URL.Query()["state"] {
		for _, name := range strings.Split(raw, ",") {
			if name == "" {
				continue
			}
			st, err := ParseState(name)
			if err != nil {
				return nil, err
			}
			states = append(states, st)
		}
	}
	return states, nil
}

func submitStatus(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrClosed), errors.Is(err, ErrStandby):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrStore):
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

// pathID parses the {id} path segment. A single daemon owns bare sequence
// numbers only; a shard-prefixed ID ("s2-17") addressed to it is a routing
// mistake and is rejected rather than silently resolved to some other job.
func pathID(w http.ResponseWriter, r *http.Request) (int64, bool) {
	id, err := ParseJobID(r.PathValue("id"))
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return 0, false
	}
	if id.Sharded() {
		WriteError(w, http.StatusBadRequest,
			fmt.Errorf("service: sharded job id %q addressed to a single daemon (send it to the cluster router)", id))
		return 0, false
	}
	return id.Seq, true
}

// WriteJSON writes v as an indented JSON response body under the given
// status code (shared by the daemon handler and the cluster router).
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is already out; nothing to salvage
}

// WriteError writes err as the API's {"error": "..."} payload. Server
// errors (5xx) additionally carry the request ID the middleware stamped
// on the response, so a client's retry log lines correlate with the
// server's access log.
func WriteError(w http.ResponseWriter, status int, err error) {
	body := map[string]string{"error": err.Error()}
	if status >= 500 {
		if rid := w.Header().Get(tracelog.RequestIDHeader); rid != "" {
			body["request_id"] = rid
		}
	}
	WriteJSON(w, status, body)
}
