package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hypersolve/internal/service"
)

// quickSpec returns a job solving in milliseconds; the seed varies the spec
// bytes, and with them the shard the router hashes it to.
func quickSpec(seed int64) service.JobSpec {
	return service.JobSpec{Kind: "sum", N: 20, Topology: "ring:4", Seed: seed}
}

// testCluster is a live fleet: n real daemons (service + HTTP) behind a
// router, itself served over HTTP and addressed through the ordinary
// service.Client — exactly the hyperctl path.
type testCluster struct {
	backends []*httptest.Server
	services []*service.Service
	router   *Router
	server   *httptest.Server
	client   *service.Client
}

func newTestCluster(t *testing.T, n int) *testCluster {
	t.Helper()
	tc := &testCluster{}
	bases := make([]string, n)
	for i := 0; i < n; i++ {
		svc := service.New(service.Config{QueueDepth: 16, Workers: 1})
		srv := httptest.NewServer(service.NewHandler(svc))
		tc.services = append(tc.services, svc)
		tc.backends = append(tc.backends, srv)
		bases[i] = srv.URL
	}
	r, err := New(Config{Backends: bases, ProbeEvery: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	tc.router = r
	tc.server = httptest.NewServer(NewHandler(r))
	tc.client = &service.Client{Base: tc.server.URL}
	t.Cleanup(func() {
		tc.server.Close()
		r.Close()
		for i := range tc.backends {
			tc.backends[i].Close()
			tc.services[i].Close()
		}
	})
	return tc
}

// submitSpread submits seeds 0..count-1 through the router until both
// shard 1 and shard 2 hold at least one job, returning all jobs. The hash
// is deterministic, so if this ever fails to spread the partitioner is
// broken, not the test.
func submitSpread(t *testing.T, tc *testCluster, ctx context.Context, count int) []service.Job {
	t.Helper()
	var jobs []service.Job
	shards := map[int]int{}
	for seed := int64(0); seed < int64(count); seed++ {
		job, err := tc.client.Submit(ctx, quickSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		if !job.ID.Sharded() {
			t.Fatalf("router returned unsharded ID %q", job.ID)
		}
		shards[job.ID.Shard]++
		jobs = append(jobs, job)
	}
	if len(shards) < 2 {
		t.Fatalf("hash partitioning put all %d jobs on one shard: %v", count, shards)
	}
	return jobs
}

// TestRouterEndToEnd is the tentpole acceptance check: jobs submitted
// through the router execute on the backends, are retrievable through the
// router by sharded ID, and the fanned-out listing equals the union of the
// backends' own listings, ordered by ID.
func TestRouterEndToEnd(t *testing.T) {
	tc := newTestCluster(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	jobs := submitSpread(t, tc, ctx, 6)
	for _, job := range jobs {
		final, err := tc.client.Wait(ctx, job.ID, 5*time.Millisecond)
		if err != nil {
			t.Fatalf("wait %s: %v", job.ID, err)
		}
		if final.State != service.StateDone || final.Result == nil || !final.Result.OK {
			t.Fatalf("job %s = %+v, want done OK", job.ID, final)
		}
		if final.ID != job.ID {
			t.Fatalf("Get through router returned ID %q, want %q", final.ID, job.ID)
		}
	}

	// The router's listing is the union of the backends', resharded and
	// ordered by (shard, seq).
	union := 0
	for i, svc := range tc.services {
		for _, j := range svc.List() {
			union++
			// Every backend-local job must be fetchable through the router
			// under its sharded name.
			got, err := tc.client.Get(ctx, service.JobID{Shard: i + 1, Seq: j.ID.Seq})
			if err != nil {
				t.Fatalf("router get s%d-%d: %v", i+1, j.ID.Seq, err)
			}
			if got.State != service.StateDone {
				t.Fatalf("router get s%d-%d state = %s", i+1, j.ID.Seq, got.State)
			}
		}
	}
	listed, err := tc.client.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(listed) != union || union != 6 {
		t.Fatalf("router list has %d jobs, backends hold %d, submitted 6", len(listed), union)
	}
	for i := 1; i < len(listed); i++ {
		if !listed[i-1].ID.Less(listed[i].ID) {
			t.Fatalf("merged listing out of order at %d: %q !< %q", i, listed[i-1].ID, listed[i].ID)
		}
	}
	// State filters propagate to the fan-out.
	done, err := tc.client.List(ctx, service.StateDone)
	if err != nil || len(done) != 6 {
		t.Fatalf("list ?state=done = %d jobs (%v), want 6", len(done), err)
	}
	if queued, err := tc.client.List(ctx, service.StateQueued); err != nil || len(queued) != 0 {
		t.Fatalf("list ?state=queued = %+v (%v), want empty", queued, err)
	}
}

// TestRouterHashRoutesConsistently: the same spec always lands on the same
// shard, and Get through the router agrees with the backend that ran it.
func TestRouterHashRoutesConsistently(t *testing.T) {
	tc := newTestCluster(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	first, err := tc.client.Submit(ctx, quickSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	second, err := tc.client.Submit(ctx, quickSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if first.ID.Shard != second.ID.Shard {
		t.Fatalf("identical specs landed on shards %d and %d", first.ID.Shard, second.ID.Shard)
	}
	if first.ID.Seq == second.ID.Seq {
		t.Fatalf("two submissions share sequence %d", first.ID.Seq)
	}
}

// TestRouterCancelRoutesByShard: a cancel through the router reaches the
// owning backend; cancelling a finished job relays the backend's 409.
func TestRouterCancelRoutesByShard(t *testing.T) {
	tc := newTestCluster(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	job, err := tc.client.Submit(ctx, quickSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tc.client.Wait(ctx, job.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	_, err = tc.client.Cancel(ctx, job.ID)
	if status, ok := service.ErrorStatus(err); !ok || status != http.StatusConflict {
		t.Fatalf("cancel of done job through router = %v, want relayed 409", err)
	}
}

// TestRouterIDErrors: unsharded IDs are rejected with 400 and unknown
// shards with 404 — before any backend is contacted.
func TestRouterIDErrors(t *testing.T) {
	tc := newTestCluster(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	_, err := tc.client.Get(ctx, service.JobID{Seq: 1})
	if status, ok := service.ErrorStatus(err); !ok || status != http.StatusBadRequest {
		t.Fatalf("unsharded get through router = %v, want 400", err)
	}
	_, err = tc.client.Get(ctx, service.JobID{Shard: 9, Seq: 1})
	if status, ok := service.ErrorStatus(err); !ok || status != http.StatusNotFound {
		t.Fatalf("unknown shard get = %v, want 404", err)
	}
	// A well-routed miss relays the backend's 404.
	_, err = tc.client.Get(ctx, service.JobID{Shard: 1, Seq: 999})
	if status, ok := service.ErrorStatus(err); !ok || status != http.StatusNotFound {
		t.Fatalf("missing job get = %v, want backend 404", err)
	}
}

// TestRouterDegradedBackend is the degradation acceptance check: with one
// backend dead, the fanned-out listing still serves the union of the
// survivors (sorted, marked partial), /v1/cluster reports the outage, the
// dead shard's reads fail with 502 — and new submissions spill over to the
// healthy shard instead of failing.
func TestRouterDegradedBackend(t *testing.T) {
	tc := newTestCluster(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	jobs := submitSpread(t, tc, ctx, 6)
	for _, job := range jobs {
		if _, err := tc.client.Wait(ctx, job.ID, 5*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	var alive, dead int // shard numbers
	perShard := map[int][]service.Job{}
	for _, j := range jobs {
		perShard[j.ID.Shard] = append(perShard[j.ID.Shard], j)
	}

	// Kill shard 2's HTTP listener (its jobs are lost to the fleet until it
	// returns, as in a real partition).
	dead, alive = 2, 1
	tc.backends[dead-1].Close()

	// Fan-out list: survivors only, still ordered, no error.
	listed, err := tc.client.List(ctx)
	if err != nil {
		t.Fatalf("list with one backend down: %v", err)
	}
	if len(listed) != len(perShard[alive]) {
		t.Fatalf("partial list = %d jobs, want %d from surviving shard", len(listed), len(perShard[alive]))
	}
	for _, j := range listed {
		if j.ID.Shard != alive {
			t.Fatalf("partial list leaked job %q from dead shard", j.ID)
		}
	}
	for i := 1; i < len(listed); i++ {
		if !listed[i-1].ID.Less(listed[i].ID) {
			t.Fatalf("partial listing out of order: %q !< %q", listed[i-1].ID, listed[i].ID)
		}
	}

	// The cluster report: degraded, one healthy backend, per-backend rows.
	var h Health
	if err := tc.client.GetJSON(ctx, "/v1/cluster", &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" || h.Healthy != 1 || h.Shards != 2 {
		t.Fatalf("cluster health = %+v, want degraded 1/2", h)
	}
	for _, row := range h.Backends {
		if row.Shard == dead && (row.Healthy || row.Error == "") {
			t.Fatalf("dead backend row = %+v, want unhealthy with error", row)
		}
		if row.Shard == alive && !row.Healthy {
			t.Fatalf("healthy backend row = %+v", row)
		}
	}

	// Reads on the dead shard: 502, not 500, and not a hang.
	_, err = tc.client.Get(ctx, perShard[dead][0].ID)
	if status, ok := service.ErrorStatus(err); !ok || status != http.StatusBadGateway {
		t.Fatalf("get on dead shard = %v, want 502", err)
	}
	// Reads on the live shard keep working.
	if _, err := tc.client.Get(ctx, perShard[alive][0].ID); err != nil {
		t.Fatalf("get on healthy shard with the other down: %v", err)
	}

	// Submissions spill over to the healthy shard, whatever the hash said.
	for seed := int64(100); seed < 106; seed++ {
		job, err := tc.client.Submit(ctx, quickSpec(seed))
		if err != nil {
			t.Fatalf("submit with one backend down: %v", err)
		}
		if job.ID.Shard != alive {
			t.Fatalf("submission landed on dead shard %d", job.ID.Shard)
		}
	}
}

// TestRouterSubmitTimeout: a backend that accepts connections but never
// answers a submission costs one SubmitTimeout, not the caller's whole
// deadline. The job lands on the next shard of the ring, the spillover is
// counted, and the hung endpoint is degraded for placement.
func TestRouterSubmitTimeout(t *testing.T) {
	svc := service.New(service.Config{QueueDepth: 16, Workers: 1})
	good := httptest.NewServer(service.NewHandler(svc))
	release := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method == http.MethodPost && req.URL.Path == "/v1/jobs" {
			select {
			case <-req.Context().Done():
			case <-release:
			}
			return
		}
		http.NotFound(w, req)
	}))
	const timeout = 250 * time.Millisecond
	// The probe loop must not run during the test: only the submission
	// may change the hung endpoint's health.
	r, err := New(Config{Backends: []string{hung.URL, good.URL}, ProbeEvery: time.Hour, SubmitTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		r.Close()
		close(release)
		hung.Close()
		good.Close()
		svc.Close()
	})

	// A spec whose home shard is the hung one.
	spec := quickSpec(0)
	for ; ; spec.Seed++ {
		data, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		if r.ring.sequence(data)[0] == 1 {
			break
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	job, err := r.Submit(ctx, spec)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("submit past a hung shard: %v", err)
	}
	if job.ID.Shard != 2 {
		t.Errorf("job landed on shard %d, want the next shard, 2", job.ID.Shard)
	}
	if elapsed < timeout || elapsed > timeout+2*time.Second {
		t.Errorf("submit took %v, want one submit timeout (%v) and a quick placement", elapsed, timeout)
	}
	var text strings.Builder
	if err := r.reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"hypersolve_cluster_submit_spillovers_total 1\n",
		`hypersolve_cluster_backend_up{shard="1",url="` + hung.URL + `"} 0` + "\n",
		`hypersolve_cluster_backend_up{shard="2",url="` + good.URL + `"} 1` + "\n",
	} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("router metrics lack %q:\n%s", want, text.String())
		}
	}
}

// TestRouterAllBackendsDown: a fleet-wide outage yields 503s, not hangs or
// panics, and /v1/cluster reports status "down".
func TestRouterAllBackendsDown(t *testing.T) {
	tc := newTestCluster(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	tc.backends[0].Close()
	tc.backends[1].Close()

	if _, err := tc.client.Submit(ctx, quickSpec(1)); err == nil {
		t.Fatal("submit with all backends down succeeded")
	} else if status, ok := service.ErrorStatus(err); !ok || status != http.StatusServiceUnavailable {
		t.Fatalf("submit with all backends down = %v, want 503", err)
	}
	if _, err := tc.client.List(ctx); err == nil {
		t.Fatal("list with all backends down succeeded")
	}
	var h Health
	if err := tc.client.GetJSON(ctx, "/v1/cluster", &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "down" || h.Healthy != 0 {
		t.Fatalf("cluster health = %+v, want down 0/2", h)
	}
}

// TestEmptyFleetReportsDown: once its last shard is drained and removed,
// the router can place nothing, so /v1/cluster must say "down" (not "ok")
// and list its backends as an empty array, not null.
func TestEmptyFleetReportsDown(t *testing.T) {
	tc := newTestCluster(t, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, action := range []string{"drain", "remove"} {
		if err := postJSON(t, tc.server.URL+"/v1/cluster/backends",
			map[string]any{"action": action, "shard": 1}, nil); err != nil {
			t.Fatalf("%s shard 1: %v", action, err)
		}
	}
	if _, err := tc.client.Submit(ctx, quickSpec(1)); err == nil {
		t.Fatal("submit to an empty fleet succeeded")
	} else if status, ok := service.ErrorStatus(err); !ok || status != http.StatusServiceUnavailable {
		t.Fatalf("submit to an empty fleet = %v, want 503", err)
	}
	var h map[string]json.RawMessage
	if err := tc.client.GetJSON(ctx, "/v1/cluster", &h); err != nil {
		t.Fatal(err)
	}
	if string(h["status"]) != `"down"` || string(h["shards"]) != "0" || string(h["backends"]) != "[]" {
		t.Fatalf("empty fleet reports status %s, shards %s, backends %s; want \"down\", 0, []",
			h["status"], h["shards"], h["backends"])
	}
}

// TestRouterRejectsBadConfig: empty and duplicate backend lists fail fast.
func TestRouterRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("router with no backends built")
	}
	if _, err := New(Config{Backends: []string{"http://a:1", "http://a:1/"}}); err == nil ||
		!strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate backends = %v, want duplicate error", err)
	}
	if _, err := New(Config{Backends: []string{"http://a:1", "  "}}); err == nil {
		t.Fatal("blank backend URL accepted")
	}
}

// TestRouterMergeOrderingAcrossShards pins the merge comparator against
// interleaved sequence numbers: shard 1's later jobs must not sort after
// shard 2's earlier ones.
func TestRouterMergeOrderingAcrossShards(t *testing.T) {
	tc := newTestCluster(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Submit directly to the backends so both shards have seqs 1..3.
	for i, srv := range tc.backends {
		c := &service.Client{Base: srv.URL}
		for seed := int64(0); seed < 3; seed++ {
			if _, err := c.Submit(ctx, quickSpec(int64(i)*10+seed)); err != nil {
				t.Fatal(err)
			}
		}
	}
	listed, err := tc.client.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, j := range listed {
		got = append(got, j.ID.String())
	}
	want := []string{"s1-1", "s1-2", "s1-3", "s2-1", "s2-2", "s2-3"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("merged order = %v, want %v", got, want)
	}
}

// TestRouterHealthRecovers: a degraded backend that comes back is healed by
// the next cluster probe, and placement uses it again.
func TestRouterHealthRecovers(t *testing.T) {
	tc := newTestCluster(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// Degrade shard 1 via a failed direct read; the backend itself stays up.
	tc.router.shardByID(1).active().setDegraded(context.DeadlineExceeded)
	var h Health
	if err := tc.client.GetJSON(ctx, "/v1/cluster", &h); err != nil {
		t.Fatal(err)
	}
	// The live probe inside /v1/cluster reaches the (running) backend and
	// heals it immediately.
	if h.Status != "ok" || h.Healthy != 2 {
		t.Fatalf("cluster health after recovery probe = %+v, want ok 2/2", h)
	}
}

// TestRouterEmptyListIsJSONArray pins the wire contract: an empty cluster
// lists as [], exactly like an empty daemon — not null.
func TestRouterEmptyListIsJSONArray(t *testing.T) {
	tc := newTestCluster(t, 2)
	resp, err := http.Get(tc.server.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body strings.Builder
	if _, err := io.Copy(&body, resp.Body); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(body.String()); got != "[]" {
		t.Fatalf("empty cluster list = %q, want []", got)
	}
}

// TestRouterNegativeShardIsNotFound: a hand-built negative shard must
// resolve to ErrUnknownShard, not an index panic.
func TestRouterNegativeShardIsNotFound(t *testing.T) {
	tc := newTestCluster(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := tc.router.Get(ctx, service.JobID{Shard: -1, Seq: 5}); !errors.Is(err, ErrUnknownShard) {
		t.Fatalf("Get(shard -1) = %v, want ErrUnknownShard", err)
	}
	if _, err := tc.router.Cancel(ctx, service.JobID{Shard: -3, Seq: 1}); !errors.Is(err, ErrUnknownShard) {
		t.Fatalf("Cancel(shard -3) = %v, want ErrUnknownShard", err)
	}
}

// slowSpec is a job that runs until cancelled (~20 s otherwise), used to
// watch live progress through the router. The service's progress observer
// makes the simulator walk every idle latency gap step by step, so the link
// latency alone sets the run time.
func slowSpec() service.JobSpec {
	return service.JobSpec{
		Kind:     "sum",
		N:        500,
		Topology: "ring:4",
		Link:     service.LinkSpec{LinkLatency: 5_000_000},
		MaxSteps: 1 << 40,
	}
}

// TestRouterEventsProxy streams a running job's SSE feed through the
// router: the stream is proxied from the owning shard, running snapshots
// arrive live, and the terminal snapshot ends the stream after a cancel.
func TestRouterEventsProxy(t *testing.T) {
	tc := newTestCluster(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	job, err := tc.client.Submit(ctx, slowSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !job.ID.Sharded() {
		t.Fatalf("router returned unsharded ID %q", job.ID)
	}

	var sawRunning atomic.Bool
	done := make(chan error, 1)
	var last atomic.Value // service.Progress
	go func() {
		done <- tc.client.Watch(ctx, job.ID, func(p service.Progress) {
			last.Store(p)
			if p.State == service.StateRunning && p.Step > 0 {
				sawRunning.Store(true)
			}
		})
	}()
	for !sawRunning.Load() {
		select {
		case err := <-done:
			t.Fatalf("stream ended before a running snapshot: %v", err)
		case <-ctx.Done():
			t.Fatal("no running snapshot before the test deadline")
		case <-time.After(10 * time.Millisecond):
		}
	}
	if _, err := tc.client.Cancel(ctx, job.ID); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Watch through router: %v", err)
		}
	case <-ctx.Done():
		t.Fatal("Watch did not end after cancel")
	}
	if p := last.Load().(service.Progress); p.State != service.StateCancelled {
		t.Fatalf("last proxied snapshot = %+v, want cancelled", p)
	}
}

// TestRouterEventsAfterDone: subscribing through the router to a job that
// already finished replays the terminal snapshot — the backend's
// subscribe-after-done semantics survive the proxy.
func TestRouterEventsAfterDone(t *testing.T) {
	tc := newTestCluster(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	job, err := tc.client.Submit(ctx, quickSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tc.client.Wait(ctx, job.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	var events []service.Progress
	if err := tc.client.Watch(ctx, job.ID, func(p service.Progress) { events = append(events, p) }); err != nil {
		t.Fatalf("Watch on done job through router: %v", err)
	}
	if len(events) != 1 || events[0].State != service.StateDone {
		t.Fatalf("replayed events = %+v, want exactly one done snapshot", events)
	}

	// And the raw wire surface: SSE content type, `event: end` frame.
	resp, err := tc.server.Client().Get(tc.server.URL + "/v1/jobs/" + job.ID.String() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("proxied Content-Type = %q, want text/event-stream", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "event: end\ndata: ") {
		t.Fatalf("proxied stream %q lacks the terminal frame", raw)
	}
}

// TestRouterEventsIDErrors pins the routing verdicts of the events
// endpoint: bare IDs 400, unknown shards 404 — and a dead shard is a clean
// 502 before the stream opens.
func TestRouterEventsIDErrors(t *testing.T) {
	tc := newTestCluster(t, 2)
	for path, want := range map[string]int{
		"/v1/jobs/17/events":    http.StatusBadRequest,
		"/v1/jobs/s9-17/events": http.StatusNotFound,
	} {
		resp, err := tc.server.Client().Get(tc.server.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s status = %d, want %d", path, resp.StatusCode, want)
		}
	}

	// Kill shard 2 outright: opening its stream is a 502, not a router
	// failure, and the backend is marked degraded.
	tc.backends[1].Close()
	tc.services[1].Close()
	resp, err := tc.server.Client().Get(tc.server.URL + "/v1/jobs/s2-1/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("events on dead shard status = %d, want 502", resp.StatusCode)
	}
	if healthy, _ := tc.router.shardByID(2).active().state(); healthy {
		t.Fatal("dead shard still marked healthy after a failed stream open")
	}
}

// TestRouterEventsMidStreamDeath: a backend dying mid-stream ends the
// proxied stream without its terminal event — the client sees
// ErrStreamEnded and can fall back to polling — and degrades the backend.
func TestRouterEventsMidStreamDeath(t *testing.T) {
	tc := newTestCluster(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	job, err := tc.client.Submit(ctx, slowSpec())
	if err != nil {
		t.Fatal(err)
	}
	owner := tc.backends[job.ID.Shard-1]

	var sawAny atomic.Bool
	done := make(chan error, 1)
	go func() {
		done <- tc.client.Watch(ctx, job.ID, func(service.Progress) { sawAny.Store(true) })
	}()
	for !sawAny.Load() {
		select {
		case err := <-done:
			t.Fatalf("stream ended before any snapshot: %v", err)
		case <-ctx.Done():
			t.Fatal("no snapshot before the test deadline")
		case <-time.After(10 * time.Millisecond):
		}
	}
	// Sever every client connection into the owning backend: the proxied
	// read fails mid-stream.
	owner.CloseClientConnections()
	select {
	case err := <-done:
		if !errors.Is(err, service.ErrStreamEnded) {
			t.Fatalf("Watch after mid-stream death = %v, want ErrStreamEnded", err)
		}
	case <-ctx.Done():
		t.Fatal("Watch did not end after the backend connection was severed")
	}
}

// TestRouterAdmissionRejectsTrailingGarbage: the router's admission path
// shares ReadJobSpec with the daemon, so a concatenated or garbage-trailed
// body is a 400 before any backend is contacted.
func TestRouterAdmissionRejectsTrailingGarbage(t *testing.T) {
	tc := newTestCluster(t, 2)
	body := `{"kind":"sum","n":20,"topology":"ring:4"}{"kind":"sum","n":21}`
	resp, err := tc.server.Client().Post(tc.server.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("router POST with trailing garbage status = %d, want 400", resp.StatusCode)
	}
	for i, svc := range tc.services {
		if jobs := svc.List(); len(jobs) != 0 {
			t.Fatalf("backend %d admitted %d jobs from a rejected body", i+1, len(jobs))
		}
	}
}
