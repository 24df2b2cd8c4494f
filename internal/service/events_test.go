package service

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestSSEEndToEnd streams a slow job's events over real HTTP through the
// daemon handler: at least one running snapshot arrives while the solve is
// live, and cancelling the job delivers the terminal snapshot and ends the
// stream.
func TestSSEEndToEnd(t *testing.T) {
	_, client := newTestServer(t, Config{QueueDepth: 4, Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	job, err := client.Submit(ctx, slowSpec())
	if err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		events []Progress
		err    error
	}
	var runningSeen atomic.Int64
	done := make(chan outcome, 1)
	go func() {
		var events []Progress
		err := client.Watch(ctx, job.ID, func(p Progress) {
			events = append(events, p)
			if p.State == StateRunning && p.Step > 0 {
				runningSeen.Add(1)
			}
		})
		done <- outcome{events, err}
	}()

	// Hold the cancel until at least one throttled running snapshot has
	// streamed in (cadence ProgressInterval), so the test asserts live
	// progress rather than racing the throttle on a slow CI box.
	for runningSeen.Load() == 0 {
		select {
		case got := <-done:
			t.Fatalf("stream ended before any running snapshot: %+v (%v)", got.events, got.err)
		case <-ctx.Done():
			t.Fatal("no running snapshot before the test deadline")
		case <-time.After(10 * time.Millisecond):
		}
	}
	if _, err := client.Cancel(ctx, job.ID); err != nil {
		t.Fatal(err)
	}

	var got outcome
	select {
	case got = <-done:
	case <-ctx.Done():
		t.Fatal("Watch did not return after the job was cancelled")
	}
	if got.err != nil {
		t.Fatalf("Watch: %v", got.err)
	}
	if len(got.events) == 0 {
		t.Fatal("Watch delivered no events")
	}
	last := got.events[len(got.events)-1]
	if last.State != StateCancelled {
		t.Fatalf("last event state = %s, want cancelled", last.State)
	}
	for _, p := range got.events[:len(got.events)-1] {
		if p.State.Terminal() {
			t.Fatalf("terminal snapshot %+v arrived before the end of the stream", p)
		}
	}
}

// TestSSEWireFormat reads the raw byte stream and pins the wire contract:
// text/event-stream content type, `event: progress` / `event: end` frame
// names, JSON data lines.
func TestSSEWireFormat(t *testing.T) {
	srv, client := newTestServer(t, Config{QueueDepth: 4, Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	job, err := client.Submit(ctx, quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Wait(ctx, job.ID, 2*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	resp, err := srv.Client().Get(srv.URL + "/v1/jobs/" + job.ID.String() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	if !strings.Contains(text, "event: end\ndata: ") {
		t.Fatalf("stream %q lacks a terminal `event: end` frame", text)
	}
	if !strings.Contains(text, `"state":"done"`) {
		t.Fatalf("stream %q lacks the done state in its data payload", text)
	}
}

// TestSSEUnknownJob: the events endpoint 404s for unknown jobs and rejects
// sharded IDs like every other daemon route.
func TestSSEUnknownJob(t *testing.T) {
	srv, _ := newTestServer(t, Config{QueueDepth: 4, Workers: 1})
	for path, want := range map[string]int{
		"/v1/jobs/999/events":   http.StatusNotFound,
		"/v1/jobs/s2-17/events": http.StatusBadRequest,
		"/v1/jobs/-5/events":    http.StatusBadRequest,
	} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s status = %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestSSESubscriberDisconnect: a subscriber that goes away mid-stream frees
// its broker slot instead of leaking it, and the solve is unaffected.
func TestSSESubscriberDisconnect(t *testing.T) {
	srv, client := newTestServer(t, Config{QueueDepth: 4, Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	job, err := client.Submit(ctx, slowSpec())
	if err != nil {
		t.Fatal(err)
	}
	watchCtx, stopWatch := context.WithCancel(ctx)
	watchDone := make(chan error, 1)
	go func() { watchDone <- client.Watch(watchCtx, job.ID, nil) }()
	time.Sleep(50 * time.Millisecond)
	stopWatch()
	if err := <-watchDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("Watch after disconnect = %v, want context.Canceled", err)
	}
	if _, err := client.Cancel(ctx, job.ID); err != nil {
		t.Fatal(err)
	}
	final, err := client.Wait(ctx, job.ID, 5*time.Millisecond)
	if err != nil || final.State != StateCancelled {
		t.Fatalf("job after subscriber disconnect = %+v (%v), want cancelled", final, err)
	}
	_ = srv
}

// TestWatchFastJob: watching an already-finished job replays exactly the
// terminal snapshot — the subscribe-after-done contract over HTTP.
func TestWatchFastJob(t *testing.T) {
	_, client := newTestServer(t, Config{QueueDepth: 4, Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	job, err := client.Submit(ctx, quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Wait(ctx, job.ID, 2*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	var events []Progress
	if err := client.Watch(ctx, job.ID, func(p Progress) { events = append(events, p) }); err != nil {
		t.Fatalf("Watch on a done job: %v", err)
	}
	if len(events) != 1 || events[0].State != StateDone {
		t.Fatalf("watch-after-done events = %+v, want exactly one done snapshot", events)
	}
}

// TestWatchStreamEnded: a server that drops the stream before the terminal
// event yields ErrStreamEnded, the signal hyperctl uses to fall back to
// polling.
func TestWatchStreamEnded(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		SetEventStreamHeaders(w)
		w.WriteHeader(http.StatusOK)
		_ = WriteEvent(w, Progress{State: StateRunning, Step: 10})
		// ...and die without a terminal frame.
	}))
	defer srv.Close()
	c := &Client{Base: srv.URL}
	var events []Progress
	err := c.Watch(context.Background(), JobID{Seq: 1}, func(p Progress) { events = append(events, p) })
	if !errors.Is(err, ErrStreamEnded) {
		t.Fatalf("Watch on a truncated stream = %v, want ErrStreamEnded", err)
	}
	if len(events) != 1 || events[0].Step != 10 {
		t.Fatalf("events before truncation = %+v, want the one running snapshot", events)
	}
}

// TestReadJobSpecRejectsTrailingGarbage: the admission path accepts exactly
// one JSON document; concatenated documents or trailing junk are a 400, on
// success the spec round-trips intact.
// endlessData streams "data: xxx…" lines and never a blank line.
type endlessData struct{ line []byte }

func (r endlessData) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		n += copy(p[n:], r.line)
	}
	return n, nil
}

// TestDecodeEventsBoundsAnEvent: data: lines with no blank line between
// them are refused once their total passes maxEventBytes, instead of growing
// the decoder's buffer for as long as the peer keeps streaming.
func TestDecodeEventsBoundsAnEvent(t *testing.T) {
	line := []byte("data: " + strings.Repeat("x", 1017) + "\n") // 1 KB a line
	err := DecodeEvents(context.Background(), endlessData{line}, nil)
	if err == nil || errors.Is(err, ErrStreamEnded) || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("DecodeEvents over endless data lines = %v, want the size bound's error", err)
	}

	// An event just inside the bound still decodes.
	var frames []Progress
	payload := `{"state":"done","error":"` + strings.Repeat("y", maxEventBytes-100) + `"}`
	stream := "data: " + payload[:len(payload)/2] + "\ndata: " + payload[len(payload)/2:] + "\n\n"
	if err := DecodeEvents(context.Background(), strings.NewReader(stream), func(p Progress) { frames = append(frames, p) }); err != nil {
		t.Fatalf("DecodeEvents of a %d-byte event: %v", len(payload), err)
	}
	if len(frames) != 1 || frames[0].State != StateDone {
		t.Fatalf("decoded %+v, want one done frame", frames)
	}
}

func TestReadJobSpecRejectsTrailingGarbage(t *testing.T) {
	srv, _ := newTestServer(t, Config{QueueDepth: 4, Workers: 1})
	for _, body := range []string{
		`{"kind":"sum","n":20,"topology":"ring:4"}{"kind":"sum","n":21}`,
		`{"kind":"sum","n":20,"topology":"ring:4"}junk`,
		`{"kind":"sum","n":20,"topology":"ring:4"} [1,2]`,
	} {
		resp, err := srv.Client().Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %q status = %d, want 400", body, resp.StatusCode)
		}
	}
	// Trailing whitespace is not garbage.
	resp, err := srv.Client().Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader("{\"kind\":\"sum\",\"n\":20,\"topology\":\"ring:4\"}\n  \n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("POST with trailing whitespace status = %d, want 202", resp.StatusCode)
	}
}

// flakyGetServer answers GET /v1/jobs/1 from a scripted sequence of
// responses, then keeps serving the last one.
func flakyGetServer(t *testing.T, script []func(w http.ResponseWriter)) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i := int(calls.Add(1)) - 1
		if i >= len(script) {
			i = len(script) - 1
		}
		script[i](w)
	}))
	t.Cleanup(srv.Close)
	return srv, &calls
}

func respondJSON(status int, body string) func(w http.ResponseWriter) {
	return func(w http.ResponseWriter) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		_, _ = io.WriteString(w, body)
	}
}

// hangUp closes the connection without a response — a transport-level
// failure as Wait sees it.
func hangUp(w http.ResponseWriter) {
	hj, ok := w.(http.Hijacker)
	if !ok {
		panic("test server does not support hijacking")
	}
	conn, _, err := hj.Hijack()
	if err != nil {
		panic(err)
	}
	conn.Close()
}

// TestWaitRidesOutTransientErrors: 502s and dropped connections mid-wait
// are retried; the wait still converges on the terminal record.
func TestWaitRidesOutTransientErrors(t *testing.T) {
	srv, calls := flakyGetServer(t, []func(http.ResponseWriter){
		respondJSON(http.StatusOK, `{"id":1,"state":"running"}`),
		respondJSON(http.StatusBadGateway, `{"error":"cluster: backend unreachable"}`),
		hangUp,
		respondJSON(http.StatusInternalServerError, `{"error":"hiccup"}`),
		respondJSON(http.StatusOK, `{"id":1,"state":"running"}`),
		respondJSON(http.StatusOK, `{"id":1,"state":"done"}`),
	})
	c := &Client{Base: srv.URL}
	job, err := c.Wait(context.Background(), JobID{Seq: 1}, time.Millisecond)
	if err != nil {
		t.Fatalf("Wait through transient errors: %v", err)
	}
	if job.State != StateDone {
		t.Fatalf("final state = %s, want done", job.State)
	}
	if got := calls.Load(); got != 6 {
		t.Fatalf("polls = %d, want 6 (every scripted response consumed)", got)
	}
}

// TestWaitReturns4xxImmediately: a 404 is the server's verdict, not a blip —
// no retries.
func TestWaitReturns4xxImmediately(t *testing.T) {
	srv, calls := flakyGetServer(t, []func(http.ResponseWriter){
		respondJSON(http.StatusNotFound, `{"error":"service: no such job"}`),
	})
	c := &Client{Base: srv.URL}
	_, err := c.Wait(context.Background(), JobID{Seq: 1}, time.Millisecond)
	if status, ok := ErrorStatus(err); !ok || status != http.StatusNotFound {
		t.Fatalf("Wait on 404 = %v, want the 404 verdict", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("polls = %d, want exactly 1", got)
	}
}

// TestWaitGivesUpAfterConsecutiveFailures: a permanently dead server ends
// the wait after the bounded retry budget rather than spinning forever.
func TestWaitGivesUpAfterConsecutiveFailures(t *testing.T) {
	srv, calls := flakyGetServer(t, []func(http.ResponseWriter){hangUp})
	c := &Client{Base: srv.URL}
	_, err := c.Wait(context.Background(), JobID{Seq: 1}, time.Millisecond)
	if err == nil {
		t.Fatal("Wait against a dead server returned nil")
	}
	if got := calls.Load(); got != waitMaxGetFailures {
		t.Fatalf("polls = %d, want %d consecutive failures then give up", got, waitMaxGetFailures)
	}
	// And the error message names the give-up so operators see it was not
	// the first blip.
	if !strings.Contains(err.Error(), "gave up") {
		t.Fatalf("give-up error = %v, want it to say so", err)
	}
}
