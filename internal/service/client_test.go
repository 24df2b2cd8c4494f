package service

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// overloadedServer returns 429 for the first reject submissions, then
// accepts; it counts POST attempts.
func overloadedServer(t *testing.T, reject int) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var posts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			t.Errorf("unexpected %s %s", r.Method, r.URL.Path)
		}
		n := posts.Add(1)
		w.Header().Set("Content-Type", "application/json")
		if n <= int64(reject) {
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"service: queue full"}`))
			return
		}
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"id":7,"state":"queued"}`))
	}))
	t.Cleanup(srv.Close)
	return srv, &posts
}

func TestSubmitRetriesOn429(t *testing.T) {
	srv, posts := overloadedServer(t, 2)
	c := &Client{Base: srv.URL}
	job, err := c.submit(context.Background(), quickSpec(), retryPolicy{attempts: 5, base: time.Millisecond, max: 4 * time.Millisecond})
	if err != nil {
		t.Fatalf("Submit after transient 429s: %v", err)
	}
	if job.ID != (JobID{Seq: 7}) {
		t.Fatalf("job = %+v, want ID 7", job)
	}
	if got := posts.Load(); got != 3 {
		t.Fatalf("attempts = %d, want 3 (two 429s + success)", got)
	}
}

func TestSubmitRetryGivesUpAfterMaxAttempts(t *testing.T) {
	srv, posts := overloadedServer(t, 1000)
	c := &Client{Base: srv.URL}
	_, err := c.submit(context.Background(), quickSpec(), retryPolicy{attempts: 3, base: time.Millisecond, max: time.Millisecond})
	if !IsOverloaded(err) {
		t.Fatalf("exhausted retries returned %v, want overload error", err)
	}
	if got := posts.Load(); got != 3 {
		t.Fatalf("attempts = %d, want exactly the policy's 3", got)
	}
}

func TestSubmitRetryHonoursContext(t *testing.T) {
	srv, _ := overloadedServer(t, 1000)
	// A long backoff against a cancelled context must return promptly with
	// the context's error, not sleep out the delay.
	c := &Client{Base: srv.URL}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.submit(ctx, quickSpec(), retryPolicy{attempts: 8, base: time.Hour, max: time.Hour})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context deadline", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Submit slept %v past its context", elapsed)
	}
}

// TestWaitBackoffGrowth pins the poll schedule: ×1.5 per poll, capped at
// 2s, never shrinking below the caller's initial interval.
func TestWaitBackoffGrowth(t *testing.T) {
	got := []time.Duration{100 * time.Millisecond}
	for i := 0; i < 12; i++ {
		got = append(got, nextPollInterval(got[len(got)-1], 100*time.Millisecond))
	}
	last := got[len(got)-1]
	if last != waitMaxInterval {
		t.Fatalf("backoff converged to %v, want %v", last, waitMaxInterval)
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("backoff shrank: %v", got)
		}
	}
	// An initial interval above the cap is respected, not clamped down.
	if next := nextPollInterval(5*time.Second, 5*time.Second); next != 5*time.Second {
		t.Fatalf("nextPollInterval(5s, 5s) = %v, want 5s", next)
	}
}

// TestWaitBacksOffOverHTTP: a job that stays running for a few polls is
// eventually reported terminal, with far fewer requests than fixed-interval
// polling would have issued.
func TestWaitBacksOffOverHTTP(t *testing.T) {
	var gets atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if gets.Add(1) < 4 {
			w.Write([]byte(`{"id":1,"state":"running"}`))
			return
		}
		w.Write([]byte(`{"id":1,"state":"done"}`))
	}))
	defer srv.Close()
	c := &Client{Base: srv.URL}
	job, err := c.Wait(context.Background(), JobID{Seq: 1}, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != StateDone {
		t.Fatalf("Wait returned %+v, want done", job)
	}
	if got := gets.Load(); got != 4 {
		t.Fatalf("polls = %d, want 4", got)
	}
}

// TestErrorResponsesDecodeAlike: every call that can meet a non-2xx response
// (do's typed methods, RawMetrics, OpenEvents) turns it into the same
// status-carrying error, takes the {"error": ...} field as the message when
// there is one, and reads at most maxErrorBody bytes of any other body.
func TestErrorResponsesDecodeAlike(t *testing.T) {
	serve := func(status int, body string) *Client {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(status)
			w.Write([]byte(body))
		}))
		t.Cleanup(srv.Close)
		return &Client{Base: srv.URL}
	}
	jsonErr := serve(http.StatusNotFound, `{"error":"service: no such job"}`)
	huge := serve(http.StatusBadGateway, strings.Repeat("x", 3*maxErrorBody))
	ctx := context.Background()
	calls := map[string]func(c *Client) error{
		"do":         func(c *Client) error { _, err := c.Get(ctx, JobID{Seq: 1}); return err },
		"RawMetrics": func(c *Client) error { _, err := c.RawMetrics(ctx); return err },
		"OpenEvents": func(c *Client) error {
			body, err := c.OpenEvents(ctx, JobID{Seq: 1})
			if err == nil {
				body.Close()
			}
			return err
		},
	}
	for name, call := range calls {
		t.Run(name, func(t *testing.T) {
			var ae *apiError
			if err := call(jsonErr); !errors.As(err, &ae) || ae.StatusCode != http.StatusNotFound ||
				ae.Message != "service: no such job" {
				t.Errorf("JSON error body: %v, want a 404 carrying the error field", err)
			}
			if err := call(huge); !errors.As(err, &ae) {
				t.Errorf("oversized error body: %v, want a status-carrying error", err)
			} else if ae.StatusCode != http.StatusBadGateway || len(ae.Message) != maxErrorBody {
				t.Errorf("oversized error body: status %d, message of %d bytes; want 502 and %d bytes",
					ae.StatusCode, len(ae.Message), maxErrorBody)
			}
		})
	}
}
