package e2e

import (
	"context"
	"testing"
	"time"

	"hypersolve/internal/cluster"
	"hypersolve/internal/service"
)

// TestClusterSmoke is the sharded fleet end to end: two durable backends
// behind a router, jobs placed on both shards and read back through the
// router (sharded IDs, SSE waits, a portfolio race, the merged listing, the
// cluster report), then one backend SIGKILLed and the router degrading —
// partial reads served by the survivor, an honest /v1/cluster — instead of
// failing. Every process logs JSON at info, so the case also checks that
// one trace ID ties a submit's router hop, its shard hop and its timeline.
func TestClusterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts real daemons")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	logs := map[int]*logBuffer{1: {}, 2: {}}
	backend := func(shard int) *daemon {
		return startDaemon(t, logs[shard], "-queue", "16", "-workers", "1", "-data-dir", t.TempDir())
	}
	shard1, shard2 := backend(1), backend(2)
	var routerLog logBuffer
	router := startDaemon(t, &routerLog, "-route", shard1.Base+","+shard2.Base)
	cnf := uf20CNF(t)

	// The spec hash must spread six seeds over both shards.
	var ids []service.JobID
	first := map[int]service.JobID{} // each shard's first job
	for seed := int64(1); seed <= 6; seed++ {
		job, err := router.Submit(ctx, service.JobSpec{Kind: "sat", CNF: cnf, Mapper: "lbn", Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, job.ID)
		if _, seen := first[job.ID.Shard]; !seen {
			first[job.ID.Shard] = job.ID
		}
	}
	if len(first) != 2 {
		t.Fatalf("jobs placed as %v, want both shards", ids)
	}

	t.Run("sse-wait", func(t *testing.T) {
		for _, id := range ids {
			// The router proxies the shard's event stream; it ends with
			// the terminal snapshot.
			if err := router.Watch(ctx, id, nil); err != nil {
				t.Fatalf("watching %v through the router: %v", id, err)
			}
			job, err := router.Get(ctx, id)
			if err != nil || job.State != service.StateDone || job.Result == nil ||
				job.Result.SAT == nil || job.Result.SAT.Status != "SAT" {
				t.Errorf("job %v = %+v (err %v), want done with a SAT verdict", id, job, err)
			}
		}
	})

	// docs/API.md: the router mints a submit's trace, both hops log it, and
	// the shard roots the job's timeline under it.
	t.Run("trace-id", func(t *testing.T) {
		jt, err := router.Trace(ctx, ids[0])
		if err != nil {
			t.Fatal(err)
		}
		submitOf := func(rec map[string]any) bool {
			return rec["msg"] == "http request" && rec["method"] == "POST" &&
				rec["path"] == "/v1/jobs" && rec["trace_id"] == jt.TraceID
		}
		routerLog.awaitRecord(t, "for the router's submit with trace "+jt.TraceID, submitOf)
		logs[ids[0].Shard].awaitRecord(t, "for the shard's submit with trace "+jt.TraceID, submitOf)
	})

	t.Run("portfolio", func(t *testing.T) {
		race, err := router.Submit(ctx, service.JobSpec{Kind: "sat", CNF: cnf, Portfolio: []string{"rr", "lbn"}, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		race, err = router.Wait(ctx, race.ID, 10*time.Millisecond)
		if err != nil || race.State != service.StateDone {
			t.Fatalf("race %+v (err %v), want done", race, err)
		}
		if want := soloWinner(t, race.Spec); race.Winner != want {
			t.Errorf("race winner %q, want %q, the fewest steps solo", race.Winner, want)
		}
		cancelled := 0
		for _, a := range race.Attempts {
			if a.State == service.StateCancelled {
				cancelled++
			}
		}
		if len(race.Attempts) != 2 || cancelled != 1 {
			t.Errorf("attempts %+v, want two with one cancelled", race.Attempts)
		}
	})

	t.Run("listing", func(t *testing.T) {
		done, err := router.List(ctx, service.StateDone)
		if err != nil || len(done) != 7 {
			t.Errorf("merged listing has %d done jobs (err %v), want 7", len(done), err)
		}
		var h cluster.Health
		if err := router.GetJSON(ctx, "/v1/cluster", &h); err != nil || h.Status != "ok" || h.Healthy != 2 {
			t.Errorf("cluster report %+v (err %v), want ok with 2 healthy", h, err)
		}
	})

	t.Run("degraded", func(t *testing.T) {
		shard2.kill()
		var h cluster.Health
		if err := router.GetJSON(ctx, "/v1/cluster", &h); err != nil || h.Status != "degraded" || h.Healthy != 1 {
			t.Errorf("cluster report %+v (err %v), want degraded with 1 healthy", h, err)
		}
		done, err := router.List(ctx, service.StateDone)
		if err != nil || len(done) == 0 {
			t.Fatalf("partial listing has %d done jobs (err %v), want shard 1's", len(done), err)
		}
		for _, job := range done {
			if job.ID.Shard != 1 {
				t.Errorf("partial listing holds %v from the dead shard", job.ID)
			}
		}
		if job, err := router.Get(ctx, first[1]); err != nil || job.State != service.StateDone {
			t.Errorf("read on the surviving shard: %+v (err %v), want done", job, err)
		}
		_, err = router.Get(ctx, first[2])
		if status, spoke := service.ErrorStatus(err); !spoke || status != 502 {
			t.Errorf("read on the dead shard: %v, want a 502", err)
		}
	})
}
