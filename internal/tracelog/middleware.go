package tracelog

import (
	"log/slog"
	"net/http"
	"time"
)

// RequestIDHeader is echoed on every response; a missing or empty
// inbound value is replaced with a fresh random ID so client retry
// logs always correlate with exactly one server-side record.
const RequestIDHeader = "X-Request-Id"

// Middleware wraps next with the fleet's request plumbing:
//
//   - echoes (or mints) the X-Request-Id header before the handler
//     runs, so error writers can include it in 5xx bodies;
//   - parses the inbound traceparent header into the request context,
//     making the trace ID available to proxying handlers;
//   - emits one structured access-log record per request, tagged with
//     method, path, status, duration, request ID and trace ID.
//
// The logged trace ID comes from the inbound traceparent header, or —
// when the request carried none — from a traceparent header the handler
// set on the response (the cluster router does this when it mints the
// trace for a submit), so the hop that roots a trace still logs its ID.
//
// A nil logger still performs the header and context plumbing.
func Middleware(l *slog.Logger, next http.Handler) http.Handler {
	if l == nil {
		l = slog.New(slog.DiscardHandler)
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqID := r.Header.Get(RequestIDHeader)
		if reqID == "" || len(reqID) > 128 {
			reqID = randHex(8)
		}
		w.Header().Set(RequestIDHeader, reqID)
		tc := FromRequest(r)
		if tc.Valid() {
			r = r.WithContext(NewContext(r.Context(), tc))
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r)
		if l.Enabled(r.Context(), slog.LevelInfo) {
			attrs := []slog.Attr{
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", sw.status),
				slog.Float64("duration_ms", float64(time.Since(start).Microseconds())/1000),
				slog.String("request_id", reqID),
			}
			if !tc.Valid() {
				tc, _ = ParseTraceparent(w.Header().Get("traceparent"))
			}
			if tc.Valid() {
				attrs = append(attrs, slog.String("trace_id", tc.TraceID))
			}
			l.LogAttrs(r.Context(), slog.LevelInfo, "http request", attrs...)
		}
	})
}

// statusWriter records the response status for the access log. It
// forwards Flush so streaming handlers (SSE) keep working behind the
// middleware.
type statusWriter struct {
	http.ResponseWriter
	status      int
	wroteHeader bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wroteHeader {
		w.status = code
		w.wroteHeader = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wroteHeader = true
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
