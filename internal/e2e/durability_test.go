package e2e

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	hypersolve "hypersolve"
	"hypersolve/internal/sat"
	"hypersolve/internal/service"
)

// TestDurabilityKillAndRestart is crash recovery end to end: pin the single
// worker behind a slow job, park five uf20 jobs in the queue, SIGKILL the
// daemon, restart it on the same -data-dir, and require every job — the one
// running at the crash and the five queued — to reach done with exactly the
// result a serial in-process run of its spec gives.
func TestDurabilityKillAndRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("starts real daemons")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	dataDir := t.TempDir()

	// The daemon's progress observer walks idle link-latency gaps step by
	// step, so the latency sets the run time: a few seconds here, long enough
	// to still be running at the kill, short enough to re-run to done.
	specs := []service.JobSpec{{Kind: "sum", N: 300, Topology: "ring:4", MaxSteps: 1 << 40,
		Link: service.LinkSpec{LinkLatency: 1_000_000}}}
	for seed := int64(1); seed <= 5; seed++ {
		specs = append(specs, service.JobSpec{Kind: "sat", N: 20, Mapper: "lbn", Topology: "torus:6x6", Seed: seed})
	}

	first := startDaemon(t, nil, "-queue", "32", "-workers", "1", "-data-dir", dataDir)
	var ids []service.JobID
	for _, spec := range specs {
		job, err := first.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, job.ID)
	}
	// The crash must land mid-queue, or the case proves nothing.
	first.awaitState(ctx, t, ids[0], service.StateRunning)
	first.awaitState(ctx, t, ids[len(ids)-1], service.StateQueued)
	first.kill()

	second := startDaemon(t, nil, "-queue", "32", "-workers", "2", "-data-dir", dataDir)
	for i, id := range ids {
		job, err := second.Wait(ctx, id, 10*time.Millisecond)
		if err != nil {
			t.Fatalf("job %v: %v", id, err)
		}
		if job.State != service.StateDone || job.Result == nil {
			t.Fatalf("job %v finished %q (%s), want done", id, job.State, job.Error)
		}
		if !reflect.DeepEqual(job.Spec, specs[i]) {
			t.Errorf("job %v came back with spec %+v, submitted %+v", id, job.Spec, specs[i])
		}
		if diff := diffSerial(job); diff != "" {
			t.Errorf("job %v differs from a serial run of its spec: %s", id, diff)
		}
	}
	done, err := second.List(ctx, service.StateDone)
	if err != nil || len(done) != len(ids) {
		t.Errorf("history lists %d done jobs (err %v), want %d", len(done), err, len(ids))
	}
}

// soloWinner is the strategy a portfolio race of spec must name: the entry
// whose solo run, in-process, takes the fewest steps, the first listed on a
// tie.
func soloWinner(t *testing.T, spec service.JobSpec) string {
	t.Helper()
	best, bestSteps := "", int64(0)
	for _, strat := range spec.Portfolio {
		solo := spec
		solo.Portfolio, solo.Mapper = nil, strat
		c, err := solo.Compile()
		if err != nil {
			t.Fatal(err)
		}
		res, err := hypersolve.Run(c.Config, c.Arg)
		if err != nil {
			t.Fatal(err)
		}
		if best == "" || res.Stats.Steps < bestSteps {
			best, bestSteps = strat, res.Stats.Steps
		}
	}
	return best
}

// diffSerial runs a finished job's spec in-process and describes the first
// difference between that run and the result the daemon served ("" if none).
func diffSerial(job service.Job) string {
	c, err := job.Spec.Compile()
	if err != nil {
		return err.Error()
	}
	want, err := hypersolve.Run(c.Config, c.Arg)
	if err != nil {
		return err.Error()
	}
	got := job.Result
	switch {
	case got.OK != want.OK || got.ComputationTime != want.ComputationTime || got.Performance != want.Performance:
		return fmt.Sprintf("ok=%v in %d steps, serial ok=%v in %d", got.OK, got.ComputationTime, want.OK, want.ComputationTime)
	case !reflect.DeepEqual(got.Stats, want.Stats):
		return fmt.Sprintf("stats %+v, serial %+v", got.Stats, want.Stats)
	}
	out, isSAT := want.Value.(sat.Outcome)
	if !isSAT {
		// Integer values arrive as JSON numbers.
		if fmt.Sprint(got.Value) != fmt.Sprint(want.Value) {
			return fmt.Sprintf("value %v, serial %v", got.Value, want.Value)
		}
		return ""
	}
	if got.SAT == nil || got.SAT.Status != out.Status.String() {
		return fmt.Sprintf("verdict %+v, serial %v", got.SAT, out.Status)
	}
	for i, lit := range got.SAT.Assignment {
		// Variables the witness leaves open are served as false.
		if v := i + 1; (lit > 0) != (v < len(out.Assignment) && out.Assignment.Value(v) > 0) {
			return fmt.Sprintf("variable %d is served as %d, serial run assigns %v", v, lit, out.Assignment)
		}
	}
	if out.Status == sat.SAT && !got.SAT.Verified {
		return "witness not verified"
	}
	return ""
}
