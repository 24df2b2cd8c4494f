package cluster

import (
	"context"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"hypersolve/internal/service"
)

// testLogWriter forwards the router's structured log lines into the test
// log so failover decisions are visible in -v output.
type testLogWriter struct{ t *testing.T }

func (w testLogWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", p)
	return len(p), nil
}

// killSwitch fronts a node's handler with a partition toggle: while dead,
// every connection is hijacked and dropped so clients see a transport
// failure — the wire signature of a killed process, not an HTTP verdict.
type killSwitch struct {
	h    http.Handler
	dead atomic.Bool
}

func (k *killSwitch) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if k.dead.Load() {
		if hj, ok := w.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				conn.Close()
			}
			return
		}
		panic("killSwitch: response writer not hijackable")
	}
	k.h.ServeHTTP(w, r)
}

// replicatedShard is one shard's pair of real nodes (durable stores,
// replication, the lot) behind kill switches.
type replicatedShard struct {
	primary, standby         *service.Node
	primarySrv, standbySrv   *httptest.Server
	primaryKill, standbyKill *killSwitch
}

func newReplicatedShard(t *testing.T, workers int) *replicatedShard {
	t.Helper()
	rs := &replicatedShard{}
	p, err := service.NewNode(service.NodeConfig{
		Dir:     t.TempDir(),
		Service: service.Config{QueueDepth: 16, Workers: workers},
	})
	if err != nil {
		t.Fatal(err)
	}
	rs.primary = p
	rs.primaryKill = &killSwitch{h: p.Handler()}
	rs.primarySrv = httptest.NewServer(rs.primaryKill)
	s, err := service.NewNode(service.NodeConfig{
		Dir:       t.TempDir(),
		Service:   service.Config{QueueDepth: 16, Workers: workers},
		Follow:    rs.primarySrv.URL,
		PullEvery: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rs.standby = s
	rs.standbyKill = &killSwitch{h: s.Handler()}
	rs.standbySrv = httptest.NewServer(rs.standbyKill)
	t.Cleanup(func() {
		rs.primarySrv.Close()
		rs.standbySrv.Close()
		rs.primary.Close()
		rs.standby.Close()
	})
	return rs
}

// waitCaughtUp blocks until the standby has applied every record the primary
// has journaled so far. It compares LSNs: the standby's own lag figure is
// only as fresh as its last pull, so "lag 0" can predate the newest records.
func (rs *replicatedShard) waitCaughtUp(t *testing.T, ctx context.Context) {
	t.Helper()
	pst, err := (&service.Client{Base: rs.primarySrv.URL}).ReplicationStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sc := &service.Client{Base: rs.standbySrv.URL}
	eventually(t, 10*time.Second, "standby catch-up", func() bool {
		st, err := sc.ReplicationStatus(ctx)
		return err == nil && st.LSN >= pst.LSN && st.LastError == ""
	})
}

// eventually polls cond until it holds or the deadline passes.
func eventually(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// submitToShard submits quick jobs with increasing seeds until one lands on
// the wanted shard (ring placement is deterministic but opaque).
func submitToShard(t *testing.T, c *service.Client, ctx context.Context, shard int, slow bool) service.Job {
	t.Helper()
	for seed := int64(0); seed < 1000; seed++ {
		spec := quickSpec(seed)
		if slow {
			spec = slowSpec()
			spec.Seed = seed
		}
		job, err := c.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if job.ID.Shard == shard {
			return job
		}
		// Wrong shard: cancel fire-and-forget to keep queues clear.
		_, _ = c.Cancel(ctx, job.ID)
	}
	t.Fatalf("no seed in 0..999 hashed to shard %d", shard)
	return service.Job{}
}

// TestFailoverEndToEnd is the tentpole acceptance check, under -race: a
// replicated shard's primary dies mid-solve; the router immediately serves
// the shard's reads from the standby, promotes it after the grace period,
// the promoted node re-runs the jobs the dead primary held, and the stale
// primary rejoining is fenced and demoted — no split-brain, no lost
// records.
func TestFailoverEndToEnd(t *testing.T) {
	rs := newReplicatedShard(t, 4)
	// Shard 2: plain unreplicated daemon, to prove mixed fleets work.
	svc2 := service.New(service.Config{QueueDepth: 16, Workers: 1})
	srv2 := httptest.NewServer(service.NewHandler(svc2))
	t.Cleanup(func() { srv2.Close(); svc2.Close() })

	r, err := New(Config{
		Backends:      []string{rs.primarySrv.URL, srv2.URL},
		Standbys:      []string{rs.standbySrv.URL},
		ProbeEvery:    20 * time.Millisecond,
		FailAfter:     2,
		PromoteAfter:  50 * time.Millisecond,
		SubmitTimeout: 5 * time.Second,
		Logger:        slog.New(slog.NewTextHandler(testLogWriter{t}, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(NewHandler(r))
	t.Cleanup(func() { router.Close(); r.Close() })
	client := &service.Client{Base: router.URL}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// A finished job and a long-running job, both on the replicated shard.
	doneJob := submitToShard(t, client, ctx, 1, false)
	if _, err := client.Wait(ctx, doneJob.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	slowJob := submitToShard(t, client, ctx, 1, true)
	// Capture both jobs' trace IDs while the primary is alive; failover
	// must keep serving these exact traces.
	doneTrace, err := client.Trace(ctx, doneJob.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(doneTrace.TraceID) != 32 {
		t.Fatalf("trace ID through the router = %q, want 32 hex chars", doneTrace.TraceID)
	}
	slowTrace, err := client.Trace(ctx, slowJob.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Let the standby catch up fully before the kill: asynchronous
	// replication only guarantees shipped records survive.
	rs.waitCaughtUp(t, ctx)

	// Partition the primary mid-solve.
	rs.primaryKill.dead.Store(true)

	// Reads fail over to the standby immediately, without waiting for the
	// probe loop to notice anything: the first transport failure on the
	// active endpoint retries against the alternate.
	got, err := client.Get(ctx, doneJob.ID)
	if err != nil {
		t.Fatalf("read during primary outage: %v", err)
	}
	if got.State != service.StateDone || got.Result == nil {
		t.Fatalf("failed-over read = %+v, want done with result", got)
	}
	// The standby serves the same trace under the same trace ID, with its
	// own replica_apply span stamped during WAL apply.
	outageTrace, err := client.Trace(ctx, doneJob.ID)
	if err != nil {
		t.Fatalf("trace read during primary outage: %v", err)
	}
	if outageTrace.TraceID != doneTrace.TraceID {
		t.Fatalf("failed-over trace ID = %s, want %s", outageTrace.TraceID, doneTrace.TraceID)
	}
	if !hasSpan(outageTrace, "replica_apply") {
		t.Fatalf("standby-served trace lacks the replica_apply span: %+v", outageTrace.Spans)
	}

	// The router promotes the standby after the grace period.
	eventually(t, 10*time.Second, "promotion", func() bool {
		h := r.Health(ctx)
		return h.Backends[0].Promoted && h.Backends[0].Base == rs.standbySrv.URL
	})
	// The promoted node re-admits the job the dead primary held; cancel it
	// through the router rather than sitting out the full solve, then
	// confirm the router serves its terminal record from the promoted node.
	if _, err := client.Cancel(ctx, slowJob.ID); err != nil {
		if status, ok := service.ErrorStatus(err); !ok || status != http.StatusConflict {
			t.Fatalf("cancel re-run job after failover: %v", err)
		}
	}
	final, err := client.Wait(ctx, slowJob.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("wait on re-run job after failover: %v", err)
	}
	if !final.State.Terminal() {
		t.Fatalf("slow job after failover = %s, want terminal", final.State)
	}
	// The promoted node's re-run resumed the original trace and marked the
	// hand-off with a requeued instant span.
	rerunTrace, err := client.Trace(ctx, slowJob.ID)
	if err != nil {
		t.Fatalf("trace of re-run job after failover: %v", err)
	}
	if rerunTrace.TraceID != slowTrace.TraceID {
		t.Fatalf("re-run trace ID = %s, want the original %s", rerunTrace.TraceID, slowTrace.TraceID)
	}
	if !hasSpan(rerunTrace, "requeued") {
		t.Fatalf("re-run trace lacks the requeued span: %+v", rerunTrace.Spans)
	}
	// The finished job's record survived the failover byte for byte.
	if got, err := client.Get(ctx, doneJob.ID); err != nil || got.State != service.StateDone {
		t.Fatalf("pre-kill done job after promotion = %+v (%v)", got, err)
	}
	// Submissions keep landing on the shard via its promoted node.
	if _, err := client.Submit(ctx, quickSpec(424242)); err != nil {
		t.Fatalf("submit after failover: %v", err)
	}

	// The stale primary rejoins: the router demotes it, it re-syncs from
	// the promoted node, and the roles swap — split-brain fenced off.
	rs.primaryKill.dead.Store(false)
	eventually(t, 10*time.Second, "stale primary demotion", func() bool {
		st := rs.primary.Status()
		return st.Role == "standby" && st.Following == rs.standbySrv.URL
	})
	eventually(t, 10*time.Second, "role swap in cluster report", func() bool {
		h := r.Health(ctx)
		row := h.Backends[0]
		return row.Base == rs.standbySrv.URL && row.Standby == rs.primarySrv.URL && row.Healthy
	})
	// The demoted node converges on the promoted node's history: same job
	// set, no double-executed duplicates.
	pc := &service.Client{Base: rs.standbySrv.URL}
	eventually(t, 10*time.Second, "demoted node convergence", func() bool {
		want, err1 := pc.List(ctx)
		got, err2 := (&service.Client{Base: rs.primarySrv.URL}).List(ctx)
		if err1 != nil || err2 != nil || len(want) != len(got) {
			return false
		}
		for i := range want {
			if want[i].ID != got[i].ID || want[i].State != got[i].State {
				return false
			}
		}
		return true
	})
}

// TestFailoverReRacesPortfolio: portfolio racing composes with failover,
// under -race. A finished race's winner and attempt ledger replicate to the
// standby and survive promotion verbatim; a race still in flight when the
// primary dies is re-admitted by the promoted standby and raced again from
// scratch — fresh attempts, original trace.
func TestFailoverReRacesPortfolio(t *testing.T) {
	rs := newReplicatedShard(t, 4)
	r, err := New(Config{
		Backends:      []string{rs.primarySrv.URL},
		Standbys:      []string{rs.standbySrv.URL},
		ProbeEvery:    20 * time.Millisecond,
		FailAfter:     2,
		PromoteAfter:  50 * time.Millisecond,
		SubmitTimeout: 5 * time.Second,
		Logger:        slog.New(slog.NewTextHandler(testLogWriter{t}, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(NewHandler(r))
	t.Cleanup(func() { router.Close(); r.Close() })
	client := &service.Client{Base: router.URL}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// A completed race: its winner and ledger must survive the failover.
	doneSpec := quickSpec(7)
	doneSpec.Portfolio = []string{"rr", "lbn"}
	doneJob, err := client.Submit(ctx, doneSpec)
	if err != nil {
		t.Fatal(err)
	}
	doneFinal, err := client.Wait(ctx, doneJob.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if doneFinal.Winner == "" || len(doneFinal.Attempts) != 2 {
		t.Fatalf("finished race = winner %q, %d attempts, want a winner and 2 attempts",
			doneFinal.Winner, len(doneFinal.Attempts))
	}

	// A race still in flight at the kill.
	raceSpec := slowSpec()
	raceSpec.Portfolio = []string{"rr", "lbn"}
	raceJob, err := client.Submit(ctx, raceSpec)
	if err != nil {
		t.Fatal(err)
	}
	eventually(t, 10*time.Second, "race start", func() bool {
		j, err := client.Get(ctx, raceJob.ID)
		return err == nil && j.State == service.StateRunning
	})

	// Let the standby catch up fully, then partition the primary mid-race.
	rs.waitCaughtUp(t, ctx)
	rs.primaryKill.dead.Store(true)
	eventually(t, 10*time.Second, "promotion", func() bool {
		h := r.Health(ctx)
		return h.Backends[0].Promoted && h.Backends[0].Base == rs.standbySrv.URL
	})

	// The finished race's record survived the failover, ledger intact.
	got, err := client.Get(ctx, doneJob.ID)
	if err != nil {
		t.Fatalf("read finished race after promotion: %v", err)
	}
	if got.Winner != doneFinal.Winner || !reflect.DeepEqual(got.Attempts, doneFinal.Attempts) {
		t.Fatalf("race ledger changed across failover:\nbefore: winner=%q %+v\nafter:  winner=%q %+v",
			doneFinal.Winner, doneFinal.Attempts, got.Winner, got.Attempts)
	}

	// The promoted node re-admitted the interrupted job and is racing it
	// again: a fresh ledger with attempts under way, on the original trace
	// (the requeued instant marks the hand-off).
	eventually(t, 10*time.Second, "re-race start", func() bool {
		j, err := client.Get(ctx, raceJob.ID)
		if err != nil || j.State != service.StateRunning {
			return false
		}
		for _, a := range j.Attempts {
			if a.State == service.StateRunning {
				return true
			}
		}
		return false
	})
	rerunTrace, err := client.Trace(ctx, raceJob.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !hasSpan(rerunTrace, "requeued") {
		t.Fatalf("re-raced trace lacks the requeued span: %+v", rerunTrace.Spans)
	}

	// Don't sit out the slow solve: cancel through the router and check the
	// whole race settles — every attempt terminal, no winner.
	if _, err := client.Cancel(ctx, raceJob.ID); err != nil {
		if status, ok := service.ErrorStatus(err); !ok || status != http.StatusConflict {
			t.Fatalf("cancel re-raced job: %v", err)
		}
	}
	final, err := client.Wait(ctx, raceJob.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !final.State.Terminal() || final.Winner != "" {
		t.Fatalf("cancelled race = %s winner %q, want terminal with no winner", final.State, final.Winner)
	}
	for _, a := range final.Attempts {
		if !a.State.Terminal() {
			t.Fatalf("cancelled race left a live attempt: %+v", a)
		}
	}
}

// TestMembershipAddDrainRemove: adding a shard at runtime re-routes only
// new placements (old IDs stay resolvable), draining excludes a shard from
// placement while keeping its reads, and removal demands a prior drain.
func TestMembershipAddDrainRemove(t *testing.T) {
	tc := newTestCluster(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	jobs := submitSpread(t, tc, ctx, 8)
	for _, j := range jobs {
		if _, err := tc.client.Wait(ctx, j.ID, 5*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}

	// Add shard 3 through the membership API.
	svc3 := service.New(service.Config{QueueDepth: 16, Workers: 1})
	srv3 := httptest.NewServer(service.NewHandler(svc3))
	t.Cleanup(func() { srv3.Close(); svc3.Close() })
	var addRes struct {
		Shard  int `json:"shard"`
		Shards int `json:"shards"`
	}
	if err := postJSON(t, tc.server.URL+"/v1/cluster/backends",
		map[string]any{"action": "add", "primary": srv3.URL}, &addRes); err != nil {
		t.Fatal(err)
	}
	if addRes.Shard != 3 || addRes.Shards != 3 {
		t.Fatalf("add response = %+v, want shard 3 of 3", addRes)
	}

	// Every pre-existing sharded ID still resolves.
	for _, j := range jobs {
		got, err := tc.client.Get(ctx, j.ID)
		if err != nil || got.State != service.StateDone {
			t.Fatalf("pre-add job %s after membership change = %+v (%v)", j.ID, got, err)
		}
	}
	// New placements reach the new shard (consistent hashing moves ~1/3 of
	// the key space; 60 distinct seeds make a miss astronomically
	// unlikely), while shards 1 and 2 keep receiving theirs.
	landed := map[int]int{}
	for seed := int64(1000); seed < 1060; seed++ {
		job, err := tc.client.Submit(ctx, quickSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		landed[job.ID.Shard]++
	}
	if len(landed) != 3 {
		t.Fatalf("placements after add span shards %v, want all 3", landed)
	}

	// Remove before drain: 409.
	var errRes struct {
		Error string `json:"error"`
	}
	err := postJSON(t, tc.server.URL+"/v1/cluster/backends",
		map[string]any{"action": "remove", "shard": 3}, &errRes)
	if status, ok := service.ErrorStatus(err); !ok || status != http.StatusConflict {
		t.Fatalf("remove of undrained shard = %v, want 409", err)
	}

	// Drain: placement avoids shard 3, reads still route to it.
	if err := postJSON(t, tc.server.URL+"/v1/cluster/backends",
		map[string]any{"action": "drain", "shard": 3}, nil); err != nil {
		t.Fatal(err)
	}
	var onThree service.JobID
	for _, j := range svc3.List() {
		onThree = service.JobID{Shard: 3, Seq: j.ID.Seq}
	}
	for seed := int64(2000); seed < 2040; seed++ {
		job, err := tc.client.Submit(ctx, quickSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		if job.ID.Shard == 3 {
			t.Fatalf("draining shard 3 received job %s", job.ID)
		}
	}
	if onThree.Sharded() {
		if _, err := tc.client.Get(ctx, onThree); err != nil {
			t.Fatalf("read from draining shard: %v", err)
		}
	}

	// Drained removal succeeds; the shard's IDs stop resolving (404).
	if err := postJSON(t, tc.server.URL+"/v1/cluster/backends",
		map[string]any{"action": "remove", "shard": 3}, nil); err != nil {
		t.Fatal(err)
	}
	if onThree.Sharded() {
		_, err := tc.client.Get(ctx, onThree)
		if status, ok := service.ErrorStatus(err); !ok || status != http.StatusNotFound {
			t.Fatalf("read from removed shard = %v, want 404", err)
		}
	}
}

// postJSON posts a JSON body to a full URL and decodes the response,
// turning non-2xx into the client's status-carrying error shape.
func postJSON(t *testing.T, url string, body, out any) error {
	t.Helper()
	return (&service.Client{Base: url}).PostJSON(context.Background(), "", body, out)
}
