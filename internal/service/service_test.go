package service

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"hypersolve/internal/core"
	"hypersolve/internal/sat"
	"hypersolve/internal/store"
	"hypersolve/internal/tracelog"
)

// Submit is SubmitTraced with a fresh trace, the way most tests submit.
func (s *Service) Submit(spec JobSpec) (Job, error) {
	return s.SubmitTraced(spec, tracelog.TraceContext{})
}

// slowSpec is a job that runs for ~20 s if never cancelled: a linear sum
// chain whose ~1000 link hops each spend 5M steps in flight, on a tiny ring.
// The service always attaches its progress observer, so the simulator walks
// every idle latency gap step by step instead of skipping it; the latency
// alone sets the run time.
func slowSpec() JobSpec {
	return JobSpec{
		Kind:     "sum",
		N:        500,
		Topology: "ring:4",
		Link:     LinkSpec{LinkLatency: 5_000_000},
		MaxSteps: 1 << 40,
	}
}

// quickSpec is a job that solves in milliseconds.
func quickSpec() JobSpec {
	return JobSpec{Kind: "sum", N: 20, Topology: "ring:4", Seed: 3}
}

// backends runs fn against a service on each Store backend, pinning the
// acceptance contract that the service behaves identically through the
// shared Store interface. The file backend gets a fresh directory per
// subtest; Close is idempotent, so tests that close explicitly still
// compose with the deferred cleanup.
func backends(t *testing.T, cfg Config, fn func(t *testing.T, s *Service)) {
	t.Run("memory", func(t *testing.T) {
		s := New(cfg)
		defer s.Close()
		fn(t, s)
	})
	t.Run("file", func(t *testing.T) {
		st, err := store.Open(store.FileConfig{Dir: t.TempDir(), History: cfg.History})
		if err != nil {
			t.Fatal(err)
		}
		c := cfg
		c.Store = st
		s := New(c)
		defer s.Close()
		fn(t, s)
	})
}

func waitState(t *testing.T, s *Service, id int64, want State, timeout time.Duration) Job {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		j, ok := s.Get(id)
		if !ok {
			t.Fatalf("job %d disappeared", id)
		}
		if j.State == want {
			return j
		}
		if j.State.Terminal() {
			t.Fatalf("job %d reached %s while waiting for %s (error: %s)", id, j.State, want, j.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %d stuck in %s, want %s", id, j.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestSubmitRunsToDone(t *testing.T) {
	backends(t, Config{QueueDepth: 4, Workers: 1}, func(t *testing.T, s *Service) {
		job, err := s.Submit(quickSpec())
		if err != nil {
			t.Fatal(err)
		}
		if job.ID.Seq != 1 || job.State != StateQueued {
			t.Fatalf("submitted job = %+v, want ID 1 queued", job)
		}
		done := waitState(t, s, job.ID.Seq, StateDone, 10*time.Second)
		if done.Result == nil || !done.Result.OK {
			t.Fatalf("result = %+v, want OK", done.Result)
		}
		if got := done.Result.Value; got != float64(210) && got != 210 {
			// Results round-trip through the store's JSON encoding, so the
			// value arrives as float64 in-process just as it would over
			// HTTP. Either reading must equal sum(20) = 210.
			t.Fatalf("value = %v (%T), want 210", got, got)
		}
	})
}

func TestMonotonicIDs(t *testing.T) {
	backends(t, Config{QueueDepth: 8, Workers: 1}, func(t *testing.T, s *Service) {
		for want := int64(1); want <= 3; want++ {
			job, err := s.Submit(quickSpec())
			if err != nil {
				t.Fatal(err)
			}
			if job.ID.Seq != want {
				t.Fatalf("job ID = %d, want %d", job.ID.Seq, want)
			}
		}
	})
}

func TestSubmitRejectsBadSpec(t *testing.T) {
	backends(t, Config{QueueDepth: 4, Workers: 1}, func(t *testing.T, s *Service) {
		cases := []JobSpec{
			{Kind: "warp-drive"},
			{Kind: "sat", CNF: "p cnf 2 1\n1 -"},
			{Kind: "sat", Topology: "moebius:3"},
			{Kind: "sat", Mapper: "psychic"},
			{Kind: "queens"}, // missing n
			{Kind: "sat", Link: LinkSpec{QueueModel: "quantum"}},
		}
		for _, spec := range cases {
			if _, err := s.Submit(spec); err == nil {
				t.Errorf("Submit(%+v) accepted, want error", spec)
			}
		}
		if jobs := s.List(); len(jobs) != 0 {
			t.Fatalf("rejected specs left %d jobs in the store", len(jobs))
		}
	})
}

// TestQueueBackpressure fills the admission queue behind a slow job and
// checks that the next submission is rejected with ErrQueueFull rather than
// blocking or growing memory.
func TestQueueBackpressure(t *testing.T) {
	backends(t, Config{QueueDepth: 2, Workers: 1}, func(t *testing.T, s *Service) {
		slow, err := s.Submit(slowSpec())
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, s, slow.ID.Seq, StateRunning, 10*time.Second)

		// The worker is occupied: the next QueueDepth submissions park in the
		// queue, and one more must bounce.
		for i := 0; i < 2; i++ {
			if _, err := s.Submit(quickSpec()); err != nil {
				t.Fatalf("fill submission %d: %v", i, err)
			}
		}
		if _, err := s.Submit(quickSpec()); !errors.Is(err, ErrQueueFull) {
			t.Fatalf("over-depth submission returned %v, want ErrQueueFull", err)
		}

		// Cancelling the slow job frees the worker; the parked jobs drain and
		// admission opens again.
		if _, err := s.Cancel(slow.ID.Seq); err != nil {
			t.Fatal(err)
		}
		waitState(t, s, slow.ID.Seq, StateCancelled, 10*time.Second)
		deadline := time.Now().Add(10 * time.Second)
		for {
			if _, err := s.Submit(quickSpec()); err == nil {
				break
			} else if !errors.Is(err, ErrQueueFull) {
				t.Fatal(err)
			}
			if time.Now().After(deadline) {
				t.Fatal("queue never drained after cancelling the blocking job")
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

func TestCancelWhileQueued(t *testing.T) {
	backends(t, Config{QueueDepth: 4, Workers: 1}, func(t *testing.T, s *Service) {
		slow, err := s.Submit(slowSpec())
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, s, slow.ID.Seq, StateRunning, 10*time.Second)
		queued, err := s.Submit(quickSpec())
		if err != nil {
			t.Fatal(err)
		}

		// Cancel the parked job: the transition is immediate, no worker runs it.
		got, err := s.Cancel(queued.ID.Seq)
		if err != nil {
			t.Fatal(err)
		}
		if got.State != StateCancelled {
			t.Fatalf("cancel-while-queued state = %s, want cancelled", got.State)
		}
		if _, err := s.Cancel(queued.ID.Seq); !errors.Is(err, ErrFinished) {
			t.Fatalf("double cancel returned %v, want ErrFinished", err)
		}

		// Unblock the worker and check the cancelled job never ran.
		if _, err := s.Cancel(slow.ID.Seq); err != nil {
			t.Fatal(err)
		}
		waitState(t, s, slow.ID.Seq, StateCancelled, 10*time.Second)
		j, _ := s.Get(queued.ID.Seq)
		if j.State != StateCancelled || j.Result != nil {
			t.Fatalf("cancelled-while-queued job = %+v, want cancelled with no result", j)
		}
	})
}

func TestCancelWhileRunning(t *testing.T) {
	backends(t, Config{QueueDepth: 4, Workers: 1}, func(t *testing.T, s *Service) {
		job, err := s.Submit(slowSpec())
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, s, job.ID.Seq, StateRunning, 10*time.Second)
		if _, err := s.Cancel(job.ID.Seq); err != nil {
			t.Fatal(err)
		}
		// The simulator polls its context every CancelSliceSteps; at ~10M
		// steps/second one slice is far below a millisecond, so seconds of
		// grace means any failure here is a lost cancellation, not jitter.
		got := waitState(t, s, job.ID.Seq, StateCancelled, 10*time.Second)
		if got.Result != nil {
			t.Fatalf("cancelled job carries a result: %+v", got.Result)
		}
		if got.FinishedAt.IsZero() {
			t.Fatal("cancelled job has no FinishedAt")
		}
	})
}

func TestDeadlineFailsJob(t *testing.T) {
	spec := slowSpec()
	spec.TimeoutMs = 50
	backends(t, Config{QueueDepth: 4, Workers: 1}, func(t *testing.T, s *Service) {
		job, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		got := waitState(t, s, job.ID.Seq, StateFailed, 10*time.Second)
		if !strings.Contains(got.Error, "deadline") {
			t.Fatalf("deadline failure error = %q, want mention of the deadline", got.Error)
		}
	})
}

// A task that panics fails its job and nothing else. The spec is one a
// client can really send: a one-node torus has no neighbour to map the first
// subcall onto, which the recursion layer reports by panicking inside the
// frame. The worker must journal a failed job and go on to the next one.
func TestTaskPanicFailsJobOnly(t *testing.T) {
	backends(t, Config{QueueDepth: 4, Workers: 1}, func(t *testing.T, s *Service) {
		bad, err := s.Submit(JobSpec{Kind: "sum", N: 3, Topology: "torus:1x1"})
		if err != nil {
			t.Fatal(err)
		}
		got := waitState(t, s, bad.ID.Seq, StateFailed, 10*time.Second)
		if !strings.Contains(got.Error, "core: task panicked") {
			t.Fatalf("failure error = %q, want the task's panic", got.Error)
		}
		good, err := s.Submit(quickSpec())
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, s, good.ID.Seq, StateDone, 10*time.Second)
	})
}

func TestCloseCancelsOutstanding(t *testing.T) {
	backends(t, Config{QueueDepth: 4, Workers: 1}, func(t *testing.T, s *Service) {
		slow, err := s.Submit(slowSpec())
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, s, slow.ID.Seq, StateRunning, 10*time.Second)
		queued, err := s.Submit(quickSpec())
		if err != nil {
			t.Fatal(err)
		}
		s.Close() // joins workers: both jobs must be terminal afterwards
		for _, id := range []int64{slow.ID.Seq, queued.ID.Seq} {
			j, _ := s.Get(id)
			if j.State != StateCancelled {
				t.Errorf("job %d after Close: %s, want cancelled", id, j.State)
			}
		}
		if _, err := s.Submit(quickSpec()); !errors.Is(err, ErrClosed) {
			t.Fatalf("submit after Close returned %v, want ErrClosed", err)
		}
	})
}

// matchSerial checks that got, a done job's result as a client receives
// it, matches a serial run of the same spec+seed: the layer-1 statistics,
// the paper's metrics, the value or SAT verdict and assignment, and the
// activity series and node heatmap when the spec asks for them.
func matchSerial(t *testing.T, spec JobSpec, got *JobResult) {
	t.Helper()
	built, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	machine, err := core.New(built.Config)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := machine.Run(built.Arg)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("done job has no result")
	}
	if !reflect.DeepEqual(got.Stats, serial.Stats) {
		t.Fatalf("stats differ from serial run:\njob:    %+v\nserial: %+v", got.Stats, serial.Stats)
	}
	if got.OK != serial.OK || got.ComputationTime != serial.ComputationTime || got.Performance != serial.Performance {
		t.Fatalf("ok/time/performance = %v/%d/%v, serial %v/%d/%v", got.OK, got.ComputationTime,
			got.Performance, serial.OK, serial.ComputationTime, serial.Performance)
	}
	if out, isSAT := serial.Value.(sat.Outcome); isSAT {
		var lits []int
		if out.Status == sat.SAT {
			for v := 1; v <= built.Formula.NumVars; v++ {
				lit := -v
				if v < len(out.Assignment) && out.Assignment.Value(v) > 0 {
					lit = v
				}
				lits = append(lits, lit)
			}
		}
		if got.SAT == nil || got.SAT.Status != out.Status.String() || !reflect.DeepEqual(got.SAT.Assignment, lits) {
			t.Fatalf("SAT payload %+v, serial run %v with assignment %v", got.SAT, out.Status, lits)
		}
	} else {
		// The job's value went through the store's JSON encoding.
		data, err := json.Marshal(serial.Value)
		if err != nil {
			t.Fatal(err)
		}
		var want any
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Value, want) {
			t.Fatalf("value %v, serial run %v", got.Value, want)
		}
	}
	if spec.RecordSeries && !reflect.DeepEqual(got.Series, serial.QueuedSeries) {
		t.Fatalf("series differs from serial run:\njob:    %v\nserial: %v", got.Series, serial.QueuedSeries)
	}
	if spec.Heatmap {
		if want := machine.NodeHeatmap(serial); !reflect.DeepEqual(got.Heatmap, want) {
			t.Fatalf("heatmap differs from serial run:\njob:    %+v\nserial: %+v", got.Heatmap, want)
		}
	}
}

// TestServiceMatchesSerialRun is the determinism acceptance check: a job
// executed through the queue/worker machinery must deliver the result a
// serial run of the same spec+seed produces.
func TestServiceMatchesSerialRun(t *testing.T) {
	suite, err := sat.GenerateSuite(sat.UF20Params(41))
	if err != nil {
		t.Fatal(err)
	}
	var cnf strings.Builder
	if err := sat.WriteDIMACS(&cnf, suite[0]); err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{
		Kind:         "sat",
		CNF:          cnf.String(),
		Topology:     "torus:8x8",
		Mapper:       "lbn",
		Seed:         7,
		RecordSeries: true,
		Heatmap:      true,
	}

	backends(t, Config{QueueDepth: 4, Workers: 2}, func(t *testing.T, s *Service) {
		job, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		done := waitState(t, s, job.ID.Seq, StateDone, 30*time.Second)
		matchSerial(t, spec, done.Result)
		if done.Result.SAT == nil || done.Result.SAT.Status != "SAT" || !done.Result.SAT.Verified {
			t.Fatalf("SAT payload = %+v, want verified SAT", done.Result.SAT)
		}

		// The serialized assignment must satisfy the formula on its own.
		a := sat.NewAssignment(suite[0].NumVars)
		for _, lit := range done.Result.SAT.Assignment {
			a.Set(sat.Lit(lit))
		}
		if !sat.Verify(suite[0], a) {
			t.Fatal("JSON assignment does not satisfy the formula")
		}
	})
}

func TestConcurrentJobsAllComplete(t *testing.T) {
	backends(t, Config{QueueDepth: 32, Workers: 4}, func(t *testing.T, s *Service) {
		var ids []int64
		for i := 0; i < 12; i++ {
			spec := quickSpec()
			spec.Seed = int64(i)
			job, err := s.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, job.ID.Seq)
		}
		for _, id := range ids {
			j := waitState(t, s, id, StateDone, 30*time.Second)
			if j.Result == nil || !j.Result.OK {
				t.Fatalf("job %d result = %+v, want OK", id, j.Result)
			}
		}
		if counts := s.Health().Jobs; counts[StateDone] != 12 {
			t.Fatalf("counts = %v, want 12 done", counts)
		}
	})
}

// TestCancelQueuedFreesSlot pins the admission contract: cancelling a
// queued job releases its queue slot immediately, without waiting for a
// worker to reach it.
func TestCancelQueuedFreesSlot(t *testing.T) {
	backends(t, Config{QueueDepth: 1, Workers: 1}, func(t *testing.T, s *Service) {
		slow, err := s.Submit(slowSpec())
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, s, slow.ID.Seq, StateRunning, 10*time.Second)
		parked, err := s.Submit(quickSpec())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Submit(quickSpec()); !errors.Is(err, ErrQueueFull) {
			t.Fatalf("queue should be full, got %v", err)
		}
		if _, err := s.Cancel(parked.ID.Seq); err != nil {
			t.Fatal(err)
		}
		// The slot is free right now — no worker progress was needed.
		if _, err := s.Submit(quickSpec()); err != nil {
			t.Fatalf("submit after cancelling the queued job: %v", err)
		}
		if _, err := s.Cancel(slow.ID.Seq); err != nil {
			t.Fatal(err)
		}
	})
}

// TestHistoryEviction checks that terminal jobs beyond the History bound
// are evicted oldest-first while queued/running jobs are untouched.
func TestHistoryEviction(t *testing.T) {
	backends(t, Config{QueueDepth: 8, Workers: 1, History: 2}, func(t *testing.T, s *Service) {
		var ids []int64
		for i := 0; i < 4; i++ {
			job, err := s.Submit(quickSpec())
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, job.ID.Seq)
			waitState(t, s, job.ID.Seq, StateDone, 10*time.Second)
		}
		for _, id := range ids[:2] {
			if _, ok := s.Get(id); ok {
				t.Errorf("job %d should have been evicted", id)
			}
		}
		for _, id := range ids[2:] {
			j, ok := s.Get(id)
			if !ok || j.State != StateDone {
				t.Errorf("job %d missing or not done after eviction", id)
			}
		}
		if n := len(s.List()); n != 2 {
			t.Errorf("store holds %d jobs, want 2", n)
		}
	})
}

// TestListStateFilter pins the filtered listing added for recovered
// history: done and cancelled jobs are separable without client-side
// filtering.
func TestListStateFilter(t *testing.T) {
	backends(t, Config{QueueDepth: 8, Workers: 1}, func(t *testing.T, s *Service) {
		done, err := s.Submit(quickSpec())
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, s, done.ID.Seq, StateDone, 10*time.Second)
		slow, err := s.Submit(slowSpec())
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, s, slow.ID.Seq, StateRunning, 10*time.Second)
		if _, err := s.Cancel(slow.ID.Seq); err != nil {
			t.Fatal(err)
		}
		waitState(t, s, slow.ID.Seq, StateCancelled, 10*time.Second)

		if got := s.List(StateDone); len(got) != 1 || got[0].ID.Seq != done.ID.Seq {
			t.Fatalf("List(done) = %+v, want exactly job %d", got, done.ID.Seq)
		}
		if got := s.List(StateCancelled); len(got) != 1 || got[0].ID.Seq != slow.ID.Seq {
			t.Fatalf("List(cancelled) = %+v, want exactly job %d", got, slow.ID.Seq)
		}
		if got := s.List(StateDone, StateCancelled); len(got) != 2 {
			t.Fatalf("List(done, cancelled) returned %d jobs, want 2", len(got))
		}
		if got := s.List(StateQueued); len(got) != 0 {
			t.Fatalf("List(queued) = %+v, want empty", got)
		}
	})
}
