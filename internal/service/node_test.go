package service

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"
)

// startNode spins up a node and an httptest server over its handler.
func startNode(t *testing.T, cfg NodeConfig) (*Node, *httptest.Server) {
	t.Helper()
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(n.Handler())
	t.Cleanup(func() { srv.Close(); n.Close() })
	return n, srv
}

// waitCaughtUp polls a standby's status until its lag reaches zero against
// a source at the given LSN.
func waitCaughtUp(t *testing.T, c *Client, wantLSN int64) ReplicationStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := c.ReplicationStatus(context.Background())
		if err == nil && st.LSN >= wantLSN {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("standby never caught up to lsn %d (last: %+v, err %v)", wantLSN, st, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestNodeReplicationAndPromotion drives the full role machine over HTTP: a
// standby tails a live primary, serves read-only copies, refuses writes,
// and — after the primary dies — promotes in place, re-runs the lost
// queued work, and serves the full job history.
func TestNodeReplicationAndPromotion(t *testing.T) {
	primary, psrv := startNode(t, NodeConfig{
		Dir:        t.TempDir(),
		QueueDepth: 8,
		Workers:    2,
	})
	// The standby gets enough workers that, after promotion, the re-run of
	// the queued quick job is not starved behind the two re-queued slow
	// jobs.
	_, ssrv := startNode(t, NodeConfig{
		Dir:        t.TempDir(),
		QueueDepth: 8,
		Workers:    4,
		Follow:     psrv.URL,
		PullEvery:  10 * time.Millisecond,
	})
	pc := &Client{Base: psrv.URL}
	sc := &Client{Base: ssrv.URL}
	ctx := context.Background()

	// A solved job replicates, result included.
	job, err := pc.Submit(ctx, quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	done, err := pc.Wait(ctx, job.ID, 10*time.Millisecond)
	if err != nil || done.State != StateDone {
		t.Fatalf("job = %v (%v), want done", done.State, err)
	}
	pst, err := pc.ReplicationStatus(ctx)
	if err != nil || pst.Role != "primary" {
		t.Fatalf("primary status = %+v (%v)", pst, err)
	}
	sst := waitCaughtUp(t, sc, pst.LSN)
	if sst.Role != "standby" || sst.Lag != 0 {
		t.Fatalf("standby status = %+v, want caught-up standby", sst)
	}
	mirror, err := sc.Get(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if mirror.State != StateDone || mirror.Result == nil || !mirror.Result.OK {
		t.Fatalf("standby mirror = %+v, want done with result", mirror)
	}

	// Writes bounce off the standby with a 503.
	if _, err := sc.Submit(ctx, quickSpec()); err == nil {
		t.Fatal("standby accepted a submission")
	} else if status, ok := ErrorStatus(err); !ok || status != 503 {
		t.Fatalf("standby submit error = %v, want 503", err)
	}

	// Leave one job queued-forever on the primary (workers busy with slow
	// jobs), replicate it, then kill the primary.
	for i := 0; i < 2; i++ {
		if _, err := pc.Submit(ctx, slowSpec()); err != nil {
			t.Fatal(err)
		}
	}
	queued, err := pc.Submit(ctx, quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	pst, _ = pc.ReplicationStatus(ctx)
	waitCaughtUp(t, sc, pst.LSN)
	psrv.CloseClientConnections()
	psrv.Close()
	primary.Close()

	// Promote the standby; the queued job must re-run to done there.
	promoted, err := sc.Promote(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if promoted.Role != "primary" || promoted.Epoch != 1 {
		t.Fatalf("promotion = %+v, want primary at epoch 1", promoted)
	}
	redone, err := sc.Wait(ctx, queued.ID, 10*time.Millisecond)
	if err != nil || redone.State != StateDone {
		t.Fatalf("re-run of queued job = %v (%v), want done", redone.State, err)
	}
	// The original history survived the failover.
	if got, err := sc.Get(ctx, job.ID); err != nil || got.State != StateDone {
		t.Fatalf("pre-failover job after promotion = %+v (%v)", got, err)
	}
	// Idempotent re-promote reports the same epoch.
	again, err := sc.Promote(ctx)
	if err != nil || again.Epoch != promoted.Epoch || len(again.Requeued) != 0 {
		t.Fatalf("re-promote = %+v (%v), want same epoch, nothing re-queued", again, err)
	}
	// And the promoted node accepts writes.
	if _, err := sc.Submit(ctx, quickSpec()); err != nil {
		t.Fatalf("promoted node rejected a submission: %v", err)
	}
}

// TestNodeDemoteResyncs steps a diverged primary down and verifies it
// re-syncs wholesale from the new source, dropping its own tail.
func TestNodeDemoteResyncs(t *testing.T) {
	a, asrv := startNode(t, NodeConfig{
		Dir:        t.TempDir(),
		QueueDepth: 8,
		Workers:    2,
	})
	_, bsrv := startNode(t, NodeConfig{
		Dir:        t.TempDir(),
		QueueDepth: 8,
		Workers:    2,
	})
	ac := &Client{Base: asrv.URL}
	bc := &Client{Base: bsrv.URL}
	ctx := context.Background()

	// Independent histories: b's will be discarded at demote.
	ajob, err := ac.Submit(ctx, quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ac.Wait(ctx, ajob.ID, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	bjob, err := bc.Submit(ctx, quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bc.Wait(ctx, bjob.ID, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	st, err := bc.Demote(ctx, asrv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if st.Role != "standby" || st.Following != asrv.URL {
		t.Fatalf("demote status = %+v", st)
	}
	ast, _ := ac.ReplicationStatus(ctx)
	waitCaughtUp(t, bc, ast.LSN)
	jobs, err := bc.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID.Seq != ajob.ID.Seq {
		t.Fatalf("demoted node's view = %+v, want exactly a's history", jobs)
	}
	_ = a
}

// TestNodeStandbyFencedFromStalePrimary: a standby that has applied a
// higher epoch refuses the old primary's feed rather than diverging.
func TestNodeStandbyFencedFromStalePrimary(t *testing.T) {
	stale, err := NewNode(NodeConfig{Dir: t.TempDir(), QueueDepth: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer stale.Close()

	// A replica store that has witnessed epoch 1 (a promotion elsewhere).
	dir := t.TempDir()
	promotedDir := t.TempDir()
	_ = dir
	pn, err := NewNode(NodeConfig{Dir: promotedDir, QueueDepth: 4, Workers: 1, Follow: "http://unused.invalid", PullEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pn.Promote(); err != nil {
		t.Fatal(err)
	}
	pnSrv := httptest.NewServer(pn.Handler())
	defer func() { pnSrv.Close(); pn.Close() }()

	// A fresh standby follows the promoted node (epoch 1), catches up...
	sb, sbsrv := startNode(t, NodeConfig{
		Dir:        t.TempDir(),
		QueueDepth: 4,
		Workers:    1,
		Follow:     pnSrv.URL,
		PullEvery:  10 * time.Millisecond,
	})
	sbc := &Client{Base: sbsrv.URL}
	pst, err := (&Client{Base: pnSrv.URL}).ReplicationStatus(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, sbc, pst.LSN)

	// ...then is retargeted at the stale (epoch 0) primary: every pull
	// must be fenced, and the standby's epoch must not regress.
	staleSrv := httptest.NewServer(stale.Handler())
	defer staleSrv.Close()
	if _, err := sbc.Demote(context.Background(), staleSrv.URL); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := sbc.ReplicationStatus(context.Background())
		if err == nil && st.LastError != "" {
			if st.Epoch < 1 {
				// Demote resets from=0, and the stale snapshot page would
				// regress the epoch — it must have been fenced instead.
				t.Fatalf("standby epoch regressed to %d via stale feed", st.Epoch)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stale feed was never rejected (last status %+v, err %v)", st, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	_ = sb
}
