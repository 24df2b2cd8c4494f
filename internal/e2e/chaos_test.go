package e2e

import (
	"context"
	"encoding/json"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"hypersolve/internal/cluster"
	"hypersolve/internal/service"
	"hypersolve/internal/telemetry"
	"hypersolve/internal/tracelog"
)

// TestChaosSmoke is the self-healing fleet end to end: two replicated
// shards (a durable primary with one worker and a WAL-tailing standby each)
// behind a router, shard 1's worker pinned by a slow job with SAT jobs
// queued behind it, then kill -9 of that primary mid-solve. The router must
// promote the standby, and every job, whether finished, running or queued at
// the kill, must reach done with exactly the result a serial in-process run
// of its spec gives. The failover must show in the cluster report, in the
// router's and the standby's /metrics and in the pinned job's trace; a shard
// added at runtime must join without breaking an issued ID; and every
// process must exit 0 on SIGTERM. The case owns every process it starts;
// each guard is a subtest that fails on its own.
func TestChaosSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts real daemons")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	primary := func() *daemon {
		return startDaemon(t, nil, "-queue", "16", "-workers", "1", "-data-dir", t.TempDir())
	}
	standby := func(of *daemon) *daemon {
		return startDaemon(t, nil, "-queue", "16", "-workers", "2", "-data-dir", t.TempDir(),
			"-follow", of.Base, "-pull-every", "50ms")
	}
	p1, p2 := primary(), primary()
	s1, s2 := standby(p1), standby(p2)
	router := startDaemon(t, nil, "-route", p1.Base+","+p2.Base, "-standbys", s1.Base+","+s2.Base,
		"-probe-every", "250ms", "-fail-after", "2", "-promote-after", "500ms")

	// Pin shard 1's worker. Placement follows the spec hash, so try seeds
	// until one lands on shard 1, cancelling the misses. The daemon's
	// progress observer walks the link latency step by step: a few seconds
	// of run, long enough to still be running at the kill.
	var pinned service.JobID
	for seed := int64(1); seed <= 30 && pinned.Shard != 1; seed++ {
		job, err := router.Submit(ctx, service.JobSpec{Kind: "sum", N: 300, Topology: "ring:4", MaxSteps: 1 << 40,
			Link: service.LinkSpec{LinkLatency: 1_000_000}, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if job.ID.Shard == 1 {
			pinned = job.ID
		} else if _, err := router.Cancel(ctx, job.ID); err != nil {
			t.Fatal(err)
		}
	}
	if pinned.Shard != 1 {
		t.Fatal("no seed of the slow spec was placed on shard 1")
	}
	router.awaitState(ctx, t, pinned, service.StateRunning)

	cnf := uf20CNF(t)
	var satIDs []service.JobID
	onShard := map[int][]service.JobID{}
	for seed := int64(1); seed <= 8; seed++ {
		job, err := router.Submit(ctx, service.JobSpec{Kind: "sat", CNF: cnf, Mapper: "lbn", Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		satIDs = append(satIDs, job.ID)
		onShard[job.ID.Shard] = append(onShard[job.ID.Shard], job.ID)
	}
	t.Run("placement", func(t *testing.T) {
		if len(onShard[1]) == 0 || len(onShard[2]) == 0 {
			t.Errorf("SAT jobs placed as %v, want both shards", satIDs)
		}
	})

	// Every record a primary has written must be on its standby before the
	// kill. The standby's own lag is only as fresh as its last pull, so read
	// the primary's LSN and wait for the standby to reach it.
	for i, pair := range [][2]*daemon{{p1, s1}, {p2, s2}} {
		st, err := pair[0].ReplicationStatus(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for {
			sb, err := pair[1].ReplicationStatus(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if sb.LSN >= st.LSN {
				break
			}
			select {
			case <-ctx.Done():
				t.Fatalf("standby %d stuck at LSN %d, primary at %d", i+1, sb.LSN, st.LSN)
			case <-time.After(10 * time.Millisecond):
			}
		}
	}

	// The kill must land mid-queue, or the case proves nothing.
	t.Run("pinned-at-kill", func(t *testing.T) {
		if job, err := p1.Get(ctx, service.JobID{Seq: pinned.Seq}); err != nil || job.State != service.StateRunning {
			t.Errorf("pinned job %v is %q (err %v) just before the kill, want running", pinned, job.State, err)
		}
		for _, id := range onShard[1] {
			if job, err := p1.Get(ctx, service.JobID{Seq: id.Seq}); err != nil || job.State != service.StateQueued {
				t.Errorf("SAT job %v is %q (err %v) just before the kill, want queued behind the pin", id, job.State, err)
			}
		}
	})
	p1.kill()

	t.Run("jobs-done", func(t *testing.T) {
		for _, id := range append([]service.JobID{pinned}, satIDs...) {
			job, err := router.Wait(ctx, id, 20*time.Millisecond)
			if err != nil || job.State != service.StateDone || job.Result == nil {
				t.Errorf("job %v finished %q (%s, err %v), want done", id, job.State, job.Error, err)
				continue
			}
			if diff := diffSerial(job); diff != "" {
				t.Errorf("job %v differs from a serial run of its spec: %s", id, diff)
			}
		}
	})

	t.Run("promoted", func(t *testing.T) {
		var row cluster.BackendHealth
		for {
			var h cluster.Health
			if err := router.GetJSON(ctx, "/v1/cluster", &h); err != nil {
				t.Fatal(err)
			}
			for _, b := range h.Backends {
				if b.Shard == 1 {
					row = b
				}
			}
			if row.Promoted {
				break
			}
			select {
			case <-ctx.Done():
				t.Fatalf("shard 1 never reported promoted: %+v", h)
			case <-time.After(50 * time.Millisecond):
			}
		}
		if row.Base != s1.Base {
			t.Errorf("promoted shard 1 is served by %s, want its standby %s", row.Base, s1.Base)
		}
	})

	t.Run("router-metrics", func(t *testing.T) {
		fams := scrape(ctx, t, router)
		if v := value(fams, "hypersolve_cluster_promotions_total", ""); v < 1 {
			t.Errorf("hypersolve_cluster_promotions_total = %v, want at least 1", v)
		}
		if !slices.ContainsFunc(fams, func(f telemetry.Family) bool { return f.Name == "hypersolve_cluster_backend_up" }) {
			t.Error("router scrape has no hypersolve_cluster_backend_up")
		}
		shard1 := false
		for _, f := range fams {
			for _, s := range f.Samples {
				shard1 = shard1 || strings.Contains(s.Labels, `shard="1"`)
			}
		}
		if !shard1 {
			t.Error(`router scrape has no series labelled shard="1"`)
		}
	})

	t.Run("standby-metrics", func(t *testing.T) {
		fams := scrape(ctx, t, s1)
		if v := value(fams, "hypersolve_replication_role", ""); v != 1 {
			t.Errorf("promoted standby reports hypersolve_replication_role %v, want 1 (primary)", v)
		}
		if v := value(fams, "hypersolve_jobs_finished_total", `state="done"`); v < 1 {
			t.Errorf(`promoted standby reports hypersolve_jobs_finished_total{state="done"} %v, want at least 1`, v)
		}
	})

	// The pinned job's timeline survived the failover: the router (routing
	// by shard prefix) and the promoted standby (by sequence) serve it under
	// one trace ID, with the span its WAL apply stamped and the re-run's.
	t.Run("trace", func(t *testing.T) {
		routed, err := router.Trace(ctx, pinned)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"requeued", "replica_apply", "run"} {
			if !slices.ContainsFunc(routed.Spans, func(s tracelog.Span) bool { return s.Name == name }) {
				t.Errorf("pinned job's trace has no %s span: %+v", name, routed.Spans)
			}
		}
		direct, err := s1.Trace(ctx, service.JobID{Seq: pinned.Seq})
		if err != nil {
			t.Fatal(err)
		}
		if routed.TraceID == "" || routed.TraceID != direct.TraceID {
			t.Errorf("trace ID %q through the router, %q from the standby; want one", routed.TraceID, direct.TraceID)
		}
	})

	// Elastic membership: a third shard joins at runtime through hyperctl;
	// issued IDs keep resolving and new work is accepted.
	p3 := primary()
	t.Run("elastic-add", func(t *testing.T) {
		out, err := router.hyperctl(t, "cluster", "add-backend", "-primary", p3.Base)
		if err != nil {
			t.Fatal(err)
		}
		var added struct{ Shards int }
		if err := json.Unmarshal([]byte(out), &added); err != nil || added.Shards != 3 {
			t.Errorf("add-backend printed %q (err %v), want 3 shards", out, err)
		}
		var h cluster.Health
		if err := router.GetJSON(ctx, "/v1/cluster", &h); err != nil || h.Shards != 3 {
			t.Errorf("cluster report %+v (err %v), want 3 shards", h, err)
		}
		if job, err := router.Get(ctx, satIDs[0]); err != nil || job.State != service.StateDone {
			t.Errorf("issued job %v reads %q (err %v) after the add, want done", satIDs[0], job.State, err)
		}
		job, err := router.Submit(ctx, service.JobSpec{Kind: "sat", CNF: cnf, Mapper: "lbn", Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		job, err = router.Wait(ctx, job.ID, 20*time.Millisecond)
		if err != nil || job.State != service.StateDone {
			t.Fatalf("job %v after the add finished %q (err %v), want done", job.ID, job.State, err)
		}
		if diff := diffSerial(job); diff != "" {
			t.Errorf("job %v differs from a serial run of its spec: %s", job.ID, diff)
		}
	})

	t.Run("sigterm", func(t *testing.T) {
		live := map[string]*daemon{"router": router, "primary 2": p2, "standby 1": s1, "standby 2": s2, "primary 3": p3}
		for name, d := range live {
			if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
				t.Errorf("signalling %s: %v", name, err)
			}
		}
		for name, d := range live {
			if err := d.cmd.Wait(); err != nil {
				t.Errorf("%s exited with %v on SIGTERM, want status 0", name, err)
			}
		}
	})
}

// scrape parses a node's /metrics exposition.
func scrape(ctx context.Context, t *testing.T, d *daemon) []telemetry.Family {
	t.Helper()
	raw, err := d.RawMetrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return telemetry.ParseText(raw)
}

// value returns the sample of the named series with exactly these labels,
// or -1 when there is none.
func value(fams []telemetry.Family, name, labels string) float64 {
	for _, f := range fams {
		for _, s := range f.Samples {
			if s.Name == name && s.Labels == labels {
				v, err := strconv.ParseFloat(s.Value, 64)
				if err != nil {
					return -1
				}
				return v
			}
		}
	}
	return -1
}
