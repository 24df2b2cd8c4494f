package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strings"
	"time"

	"hypersolve/internal/tracelog"
)

// Client talks to a hypersolved server. The zero value is not usable; set
// Base to the server's root URL (e.g. "http://localhost:8080").
type Client struct {
	// Base is the server root URL, without a trailing slash.
	Base string
	// HTTP is the transport; nil means http.DefaultClient.
	HTTP *http.Client
	// Retry shapes Submit's backoff when the server rejects with 429
	// (queue full). The zero value selects the defaults; set
	// Retry.MaxAttempts to 1 to surface 429s immediately.
	Retry Retry
}

// Retry is Submit's backoff policy for queue-full (HTTP 429) rejections:
// capped exponential delays with full jitter, so a batch of clients bounced
// by the same full queue does not re-converge on the same instant.
type Retry struct {
	// MaxAttempts caps total submission attempts, the first included.
	// 0 selects the default 8; 1 (or less) disables retrying.
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (default 50ms); each retry
	// doubles it up to MaxDelay (default 2s). The actual sleep is drawn
	// uniformly from [delay/2, delay].
	BaseDelay time.Duration
	MaxDelay  time.Duration
}

func (r Retry) norm() (attempts int, base, max time.Duration) {
	attempts = r.MaxAttempts
	if attempts == 0 {
		attempts = 8
	}
	if attempts < 1 {
		attempts = 1
	}
	base = r.BaseDelay
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	max = r.MaxDelay
	if max <= 0 {
		max = 2 * time.Second
	}
	if max < base {
		max = base
	}
	return attempts, base, max
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// apiError is a non-2xx response decoded into an error. StatusCode lets
// callers distinguish overload (429) from bad specs (400).
type apiError struct {
	StatusCode int
	Message    string
}

func (e *apiError) Error() string {
	return fmt.Sprintf("server returned %d: %s", e.StatusCode, e.Message)
}

// IsOverloaded reports whether the error is the server's queue-full
// rejection (HTTP 429), the signal to back off and resubmit.
func IsOverloaded(err error) bool {
	var ae *apiError
	return errors.As(err, &ae) && ae.StatusCode == http.StatusTooManyRequests
}

// ErrorStatus returns the HTTP status code carried by a server-side error
// (a non-2xx response decoded by the client) and true, or 0 and false for
// transport-level failures that never produced a status line. The cluster
// router uses the distinction to relay backend verdicts verbatim while
// treating transport failures as a degraded backend.
func ErrorStatus(err error) (int, bool) {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae.StatusCode, true
	}
	return 0, false
}

// maxErrorBody bounds how much of a non-2xx response body the client reads
// into an error message.
const maxErrorBody = 1 << 20

// responseError turns a non-2xx response into an apiError. The message is
// the body's {"error": ...} field when it has one, else the body itself,
// read up to maxErrorBody bytes.
func responseError(resp *http.Response) error {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorBody))
	var e struct {
		Error string `json:"error"`
	}
	msg := strings.TrimSpace(string(data))
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		msg = e.Error
	}
	return &apiError{StatusCode: resp.StatusCode, Message: msg}
}

func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, strings.TrimSuffix(c.Base, "/")+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if tc, ok := tracelog.FromContext(ctx); ok {
		req.Header.Set("traceparent", tc.Traceparent())
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return responseError(resp)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// Submit enqueues a job and returns its accepted record. Queue-full
// rejections (HTTP 429) are retried with jittered exponential backoff per
// the client's Retry policy; any other error — and a 429 that survives the
// final attempt — is returned as-is. Cancelling ctx aborts the backoff.
func (c *Client) Submit(ctx context.Context, spec JobSpec) (Job, error) {
	attempts, delay, maxDelay := c.Retry.norm()
	for attempt := 1; ; attempt++ {
		var job Job
		err := c.do(ctx, http.MethodPost, "/v1/jobs", spec, &job)
		if err == nil || !IsOverloaded(err) || attempt >= attempts {
			return job, err
		}
		sleep := delay/2 + time.Duration(rand.Int64N(int64(delay/2)+1))
		if err := sleepCtx(ctx, sleep); err != nil {
			return Job{}, err
		}
		if delay *= 2; delay > maxDelay {
			delay = maxDelay
		}
	}
}

// sleepCtx pauses for d or until ctx is done, returning ctx's error in the
// latter case.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Get fetches one job. Sharded IDs ("s2-17") work against a cluster
// router; bare sequence IDs against a single daemon.
func (c *Client) Get(ctx context.Context, id JobID) (Job, error) {
	var job Job
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id.String(), nil, &job)
	return job, err
}

// GetJSON performs a GET against an arbitrary API path and decodes the
// response into out — the escape hatch for endpoints the typed methods do
// not cover (hyperctl uses it for the router's /v1/cluster report).
func (c *Client) GetJSON(ctx context.Context, path string, out any) error {
	return c.do(ctx, http.MethodGet, path, nil, out)
}

// PostJSON performs a POST against an arbitrary API path, sending body as
// JSON and decoding the response into out (either may be nil) — the POST
// counterpart of GetJSON (hyperctl uses it for the router's membership
// endpoint).
func (c *Client) PostJSON(ctx context.Context, path string, body, out any) error {
	return c.do(ctx, http.MethodPost, path, body, out)
}

// List fetches jobs, optionally filtered to the given states (no states =
// all jobs).
func (c *Client) List(ctx context.Context, states ...State) ([]Job, error) {
	path := "/v1/jobs"
	if len(states) > 0 {
		q := url.Values{}
		for _, st := range states {
			q.Add("state", string(st))
		}
		path += "?" + q.Encode()
	}
	var jobs []Job
	err := c.do(ctx, http.MethodGet, path, nil, &jobs)
	return jobs, err
}

// Cancel stops a queued or running job.
func (c *Client) Cancel(ctx context.Context, id JobID) (Job, error) {
	var job Job
	err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id.String(), nil, &job)
	return job, err
}

// Trace fetches one job's span timeline (GET /v1/jobs/{id}/trace).
// Sharded IDs work against a cluster router; bare sequence IDs against
// a single daemon or standby.
func (c *Client) Trace(ctx context.Context, id JobID) (JobTrace, error) {
	var jt JobTrace
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id.String()+"/trace", nil, &jt)
	return jt, err
}

// Health fetches the server's liveness report.
func (c *Client) Health(ctx context.Context) (Health, error) {
	var h Health
	err := c.do(ctx, http.MethodGet, "/healthz", nil, &h)
	return h, err
}

// RawMetrics fetches GET /metrics verbatim — Prometheus text, not JSON.
// The cluster router scrapes backends through it for the aggregated
// fleet exposition.
func (c *Client) RawMetrics(ctx context.Context) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		strings.TrimSuffix(c.Base, "/")+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, responseError(resp)
	}
	return io.ReadAll(resp.Body)
}

// waitMaxInterval caps Wait's backoff: however long a solve runs, the
// client never polls less often than this.
const waitMaxInterval = 2 * time.Second

// waitMaxGetFailures bounds how many consecutive transient Get failures
// Wait rides out before giving up and returning the last error.
const waitMaxGetFailures = 5

// transientWaitError reports whether a Get failure is worth retrying from
// inside Wait: transport-level errors (the daemon restarting, a router
// re-probing a backend) and server-side 5xx verdicts are transient; a 4xx
// is the server's answer about this job (404 gone, 400 bad ID) and aborting
// minutes into a wait over it would be correct, so it is returned
// immediately.
func transientWaitError(err error) bool {
	status, spoke := ErrorStatus(err)
	return !spoke || status >= 500
}

// Wait polls a job until it reaches a terminal state or ctx expires,
// returning the final record. The poll interval starts at initial (default
// 100ms) and backs off gently — ×1.5 per poll, capped at 2s (or at initial,
// if larger) — so waiting on a long solve doesn't hammer the daemon.
//
// Transient poll failures — transport errors and 5xx verdicts, e.g. a 502
// from a router mid-re-probe or a daemon restart blip — are retried in
// place with the same backoff schedule, up to waitMaxGetFailures
// consecutive failures, so one blip cannot kill a wait minutes into a
// solve. A 4xx verdict is returned immediately. Cancelling ctx always ends
// the wait.
func (c *Client) Wait(ctx context.Context, id JobID, initial time.Duration) (Job, error) {
	if initial <= 0 {
		initial = 100 * time.Millisecond
	}
	interval := initial
	failures := 0
	for {
		job, err := c.Get(ctx, id)
		if err != nil {
			if ctx.Err() != nil || !transientWaitError(err) {
				return job, err
			}
			if failures++; failures >= waitMaxGetFailures {
				return job, fmt.Errorf("service: wait gave up after %d consecutive poll failures: %w", failures, err)
			}
		} else {
			failures = 0
			if job.State.Terminal() {
				return job, nil
			}
		}
		if err := sleepCtx(ctx, interval); err != nil {
			return job, err
		}
		interval = nextPollInterval(interval, initial)
	}
}

// OpenEvents performs GET /v1/jobs/{id}/events and returns the raw SSE
// stream for the caller to consume (Watch decodes it; the cluster router
// proxies it verbatim). A non-200 response is decoded into the same
// status-carrying error as every other call, so ErrorStatus distinguishes a
// server verdict from a transport failure.
func (c *Client) OpenEvents(ctx context.Context, id JobID) (io.ReadCloser, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		strings.TrimSuffix(c.Base, "/")+"/v1/jobs/"+id.String()+"/events", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	if tc, ok := tracelog.FromContext(ctx); ok {
		req.Header.Set("traceparent", tc.Traceparent())
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, responseError(resp)
	}
	return resp.Body, nil
}

// ErrStreamEnded reports an event stream that closed before delivering the
// terminal snapshot — the backend died mid-stream, or a proxy gave up.
// Callers holding a job ID can fall back to polling Wait.
var ErrStreamEnded = errors.New("service: event stream ended before the job finished")

// Watch streams a job's progress events, invoking fn (which may be nil) for
// every decoded snapshot in order. It returns nil once the terminal
// snapshot — the one whose State is terminal, always the stream's last —
// has been delivered, ErrStreamEnded if the stream closed without one, and
// the opening error otherwise (a 404 for an unknown job, a transport
// failure...). The event rate is bounded by the server's throttle
// (ProgressInterval); fast jobs may deliver only the terminal snapshot.
func (c *Client) Watch(ctx context.Context, id JobID, fn func(Progress)) error {
	body, err := c.OpenEvents(ctx, id)
	if err != nil {
		return err
	}
	defer body.Close()
	return DecodeEvents(ctx, body, fn)
}

// maxEventBytes bounds one SSE event's data, summed over its data: lines
// (and so each line too). A progress snapshot is a few hundred bytes.
const maxEventBytes = 1 << 20

// DecodeEvents consumes a raw SSE stream (as returned by OpenEvents),
// invoking fn (which may be nil) for every decoded Progress snapshot in
// order, with Watch's termination contract: nil after the terminal
// snapshot, ErrStreamEnded if the stream closed without one. An event whose
// data passes maxEventBytes is an error, so a peer streaming data: lines
// with no blank line cannot grow the reader's memory without bound. The
// cluster router shares it so a failed-over stream decodes identically.
func DecodeEvents(ctx context.Context, body io.Reader, fn func(Progress)) error {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), maxEventBytes)
	var data []byte
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if len(data) == 0 {
				continue // keep-alive or event-name-only frame
			}
			var p Progress
			if err := json.Unmarshal(data, &p); err != nil {
				return fmt.Errorf("service: decoding progress event %q: %w", data, err)
			}
			data = nil
			if fn != nil {
				fn(p)
			}
			if p.State.Terminal() {
				return nil
			}
		case strings.HasPrefix(line, "data:"):
			// Multi-line data concatenates per the SSE spec; a single
			// leading space after the colon is not part of the payload.
			payload := strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " ")
			if len(data)+len(payload) > maxEventBytes {
				return fmt.Errorf("service: progress event data exceeds %d bytes", maxEventBytes)
			}
			data = append(data, payload...)
		default:
			// event:/retry:/id: fields and comments carry nothing Watch
			// needs: the terminal frame is recognised by its state.
		}
	}
	if err := sc.Err(); err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return err
	}
	return ErrStreamEnded
}

// nextPollInterval grows a poll interval ×1.5, capped at waitMaxInterval or
// the initial interval, whichever is larger.
func nextPollInterval(interval, initial time.Duration) time.Duration {
	ceil := waitMaxInterval
	if initial > ceil {
		ceil = initial
	}
	if interval = interval * 3 / 2; interval > ceil {
		interval = ceil
	}
	return interval
}
