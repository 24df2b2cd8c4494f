package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hypersolve/internal/sat"
)

func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *Client) {
	t.Helper()
	svc := New(cfg)
	srv := httptest.NewServer(NewHandler(svc))
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return srv, &Client{Base: srv.URL, HTTP: srv.Client()}
}

// TestHTTPEndToEnd drives the full service loop over real HTTP: submit a
// DIMACS job, poll to completion, and check the JSON result carries a
// verified satisfying assignment.
func TestHTTPEndToEnd(t *testing.T) {
	suite, err := sat.GenerateSuite(sat.UF20Params(5))
	if err != nil {
		t.Fatal(err)
	}
	var cnf strings.Builder
	if err := sat.WriteDIMACS(&cnf, suite[0]); err != nil {
		t.Fatal(err)
	}

	_, client := newTestServer(t, Config{QueueDepth: 8, Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	job, err := client.Submit(ctx, JobSpec{
		Kind:     "sat",
		CNF:      cnf.String(),
		Topology: "torus:8x8",
		Mapper:   "lbn",
		Seed:     9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if job.State != StateQueued && job.State != StateRunning {
		t.Fatalf("accepted job state = %s", job.State)
	}

	final, err := client.Wait(ctx, job.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.Result == nil || final.Result.SAT == nil {
		t.Fatalf("final job = %+v, want done with SAT result", final)
	}
	if final.Result.SAT.Status != "SAT" || !final.Result.SAT.Verified {
		t.Fatalf("SAT result = %+v, want verified SAT", final.Result.SAT)
	}
	a := sat.NewAssignment(suite[0].NumVars)
	for _, lit := range final.Result.SAT.Assignment {
		a.Set(sat.Lit(lit))
	}
	if !sat.Verify(suite[0], a) {
		t.Fatal("assignment from the wire does not satisfy the formula")
	}

	jobs, err := client.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != job.ID {
		t.Fatalf("list = %+v, want exactly the submitted job", jobs)
	}
	if jobs, err = client.List(ctx, StateDone); err != nil || len(jobs) != 1 {
		t.Fatalf("list ?state=done = %+v (%v), want the done job", jobs, err)
	}
	if jobs, err = client.List(ctx, StateQueued, StateRunning); err != nil || len(jobs) != 0 {
		t.Fatalf("list ?state=queued,running = %+v (%v), want empty", jobs, err)
	}
	h, err := client.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Jobs[StateDone] != 1 {
		t.Fatalf("health = %+v, want ok with one done job", h)
	}
}

// TestHTTPBackpressure checks the 429 contract: submissions beyond the
// queue depth are rejected and recognisable via IsOverloaded. Retrying is
// disabled — the blocking job never finishes, so the default backoff would
// only delay the guaranteed 429.
func TestHTTPBackpressure(t *testing.T) {
	_, client := newTestServer(t, Config{QueueDepth: 1, Workers: 1})
	client.Retry = Retry{MaxAttempts: 1}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	slow, err := client.Submit(ctx, slowSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the worker picks it up so exactly one queue slot remains.
	for {
		j, err := client.Get(ctx, slow.ID)
		if err != nil {
			t.Fatal(err)
		}
		if j.State == StateRunning {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := client.Submit(ctx, quickSpec()); err != nil {
		t.Fatal(err)
	}
	_, err = client.Submit(ctx, quickSpec())
	if !IsOverloaded(err) {
		t.Fatalf("over-depth submit returned %v, want a 429 overload error", err)
	}
	if _, err := client.Cancel(ctx, slow.ID); err != nil {
		t.Fatal(err)
	}
}

// TestHTTPCancelRunning submits a multi-second job and cancels it over
// HTTP; the job must go terminal far faster than it could have finished.
func TestHTTPCancelRunning(t *testing.T) {
	_, client := newTestServer(t, Config{QueueDepth: 4, Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	job, err := client.Submit(ctx, slowSpec())
	if err != nil {
		t.Fatal(err)
	}
	for {
		j, err := client.Get(ctx, job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if j.State == StateRunning {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := client.Cancel(ctx, job.ID); err != nil {
		t.Fatal(err)
	}
	final, err := client.Wait(ctx, job.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateCancelled {
		t.Fatalf("state after cancel = %s, want cancelled", final.State)
	}
}

func TestHTTPErrors(t *testing.T) {
	srv, client := newTestServer(t, Config{QueueDepth: 4, Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	if _, err := client.Get(ctx, JobID{Seq: 999}); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("get unknown job: %v, want 404", err)
	}
	if _, err := client.Cancel(ctx, JobID{Seq: 999}); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("cancel unknown job: %v, want 404", err)
	}
	if _, err := client.Submit(ctx, JobSpec{Kind: "nope"}); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("bad spec: %v, want 400", err)
	}

	// An unknown state filter is a 400.
	resp, err := srv.Client().Get(srv.URL + "/v1/jobs?state=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("GET ?state=bogus status = %d, want 400", resp.StatusCode)
	}

	// Malformed JSON, unknown fields and DIMACS literals outside 32 bits or
	// the declared variables are 400s (the last two used to reach the solver:
	// one as literal 1, the other as an index that killed the daemon). So are
	// specs over the admission bounds, which used to be built — gigabytes of
	// clauses, items or neighbour lists — inside the submit handler.
	for _, body := range []string{
		"{",
		`{"kind":"sat","surprise":1}`,
		`{"kind":"sat","cnf":"p cnf 3 1\n4294967297 2 0\n","topology":"ring:4"}`,
		`{"kind":"sat","cnf":"p cnf 3 1\n-2147483648 2 0\n","topology":"ring:4"}`,
		`{"kind":"sat","n":1000000000}`,
		`{"kind":"sat","cnf":"p cnf 50000000 0\n"}`,
		`{"kind":"knapsack","n":1000000000}`,
		`{"kind":"queens","n":128}`,
		`{"kind":"fib","n":5,"topology":"torus:100000x100000"}`,
		`{"kind":"fib","n":5,"topology":"star:1000000000"}`,
		`{"kind":"fib","n":5,"topology":"full:16384"}`,
		`{"kind":"fib","n":5,"topology":"torus:4x4","procs_per_node":1000000000}`,
	} {
		resp, err := srv.Client().Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %q status = %d, want 400", body, resp.StatusCode)
		}
	}

	// Cancelling a finished job is a 409.
	job, err := client.Submit(ctx, quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Wait(ctx, job.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Cancel(ctx, job.ID); err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("cancel finished job: %v, want 409", err)
	}

	// Job payloads round-trip through JSON with stable states.
	var j Job
	data, err := json.Marshal(job)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &j); err != nil {
		t.Fatal(err)
	}
	if j.ID != job.ID || j.Spec.Kind != "sum" {
		t.Fatalf("job did not survive a JSON round trip: %+v", j)
	}
}
