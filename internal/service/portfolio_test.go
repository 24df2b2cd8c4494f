package service

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"hypersolve/internal/core"
	"hypersolve/internal/sat"
	"hypersolve/internal/store"
)

// satSpec returns a deterministic uf20 SAT spec (no mapper set; tests fill
// in Mapper or Portfolio).
func satSpec(t *testing.T, suiteSeed int64) JobSpec {
	t.Helper()
	suite, err := sat.GenerateSuite(sat.UF20Params(suiteSeed))
	if err != nil {
		t.Fatal(err)
	}
	var cnf strings.Builder
	if err := sat.WriteDIMACS(&cnf, suite[0]); err != nil {
		t.Fatal(err)
	}
	return JobSpec{
		Kind:         "sat",
		CNF:          cnf.String(),
		Topology:     "torus:8x8",
		Seed:         7,
		RecordSeries: true,
	}
}

// soloSteps runs spec serially under each strategy and returns each run's
// Stats.Steps, in order.
func soloSteps(t *testing.T, spec JobSpec, strategies ...string) []int64 {
	t.Helper()
	steps := make([]int64, len(strategies))
	for i, strat := range strategies {
		spec.Portfolio, spec.Mapper = nil, strat
		built, err := spec.Compile()
		if err != nil {
			t.Fatal(err)
		}
		machine, err := core.New(built.Config)
		if err != nil {
			t.Fatal(err)
		}
		res, err := machine.Run(built.Arg)
		if err != nil {
			t.Fatal(err)
		}
		steps[i] = res.Stats.Steps
	}
	return steps
}

// soloWinner is the strategy a race of strategies must name: the one whose
// solo run takes the fewest steps, the first listed on a tie.
func soloWinner(t *testing.T, spec JobSpec, strategies ...string) string {
	t.Helper()
	steps := soloSteps(t, spec, strategies...)
	best := 0
	for i := range steps {
		if steps[i] < steps[best] {
			best = i
		}
	}
	return strategies[best]
}

// checkLedger asserts the attempt ledger of a done race: exactly one
// attempt is done, marked the winner under the job's Winner, and every
// other attempt is cancelled or failed.
func checkLedger(t *testing.T, job Job) {
	t.Helper()
	winners := 0
	for _, a := range job.Attempts {
		switch {
		case a.Winner && a.State == StateDone && a.Strategy == job.Winner:
			winners++
		case a.Winner || (a.State != StateCancelled && a.State != StateFailed):
			t.Fatalf("attempt %+v in a race won by %q, want it cancelled or failed", a, job.Winner)
		}
	}
	if winners != 1 {
		t.Fatalf("%d winning attempts in %+v, want exactly 1", winners, job.Attempts)
	}
}

func TestPortfolioSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		spec JobSpec
	}{
		{"with mapper", JobSpec{Kind: "sum", N: 4, Mapper: "rr", Portfolio: []string{"lbn"}}},
		{"duplicate", JobSpec{Kind: "sum", N: 4, Portfolio: []string{"rr", "rr"}}},
		{"unknown strategy", JobSpec{Kind: "sum", N: 4, Portfolio: []string{"rr", "psychic"}}},
		{"auto plus others", JobSpec{Kind: "sum", N: 4, Portfolio: []string{"auto", "rr"}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.spec.Compile(); err == nil {
				t.Fatalf("Compile(%+v) accepted, want error", tc.spec)
			}
		})
	}
	ok := JobSpec{Kind: "sum", N: 4, Portfolio: []string{"rr", "lbn", "weighted:2"}}
	if _, err := ok.Compile(); err != nil {
		t.Fatalf("valid portfolio rejected: %v", err)
	}
	auto := JobSpec{Kind: "sum", N: 4, Portfolio: []string{"auto"}}
	if _, err := auto.Compile(); err != nil {
		t.Fatalf(`portfolio ["auto"] rejected: %v`, err)
	}
}

// TestPortfolioBitIdenticalToSoloWinner: a portfolio race's job result is
// bit-identical to a solo run of the strategy with the fewest solo steps,
// and the attempt ledger records exactly one winner with every loser
// cancelled.
func TestPortfolioBitIdenticalToSoloWinner(t *testing.T) {
	spec := satSpec(t, 41)
	spec.Portfolio = []string{"rr", "lbn", "weighted"}

	backends(t, Config{QueueDepth: 4, Workers: 4}, func(t *testing.T, s *Service) {
		job, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		done := waitState(t, s, job.ID.Seq, StateDone, 30*time.Second)
		if want := soloWinner(t, spec, spec.Portfolio...); done.Winner != want {
			t.Fatalf("race winner %q, want %q", done.Winner, want)
		}
		if len(done.Attempts) != 3 {
			t.Fatalf("attempt ledger has %d entries, want 3: %+v", len(done.Attempts), done.Attempts)
		}
		winners := 0
		for _, a := range done.Attempts {
			switch {
			case a.Winner:
				winners++
				if a.Strategy != done.Winner || a.State != StateDone {
					t.Fatalf("winning attempt = %+v, want done under %q", a, done.Winner)
				}
				if a.Steps == 0 || a.StartedAt.IsZero() || a.FinishedAt.IsZero() {
					t.Fatalf("winning attempt missing bookkeeping: %+v", a)
				}
			case a.State != StateCancelled:
				t.Fatalf("losing attempt %+v, want cancelled", a)
			}
		}
		if winners != 1 {
			t.Fatalf("%d winning attempts, want exactly 1", winners)
		}

		// Solo reference run under the winning strategy.
		solo := spec
		solo.Portfolio = nil
		solo.Mapper = done.Winner
		matchSerial(t, solo, done.Result)
	})
}

// TestPortfolioWinnerIsDeterministic pins the race rule: the winner is the
// successful attempt with the fewest simulated steps, a tie going to the
// strategy listed first, so neither the worker count nor the host's
// scheduling can change it. Every run names the same winner with a
// DeepEqual result, and that result is a serial run of the winner's.
func TestPortfolioWinnerIsDeterministic(t *testing.T) {
	for _, tc := range []struct {
		seed   int64
		winner string
	}{
		{41, "lbn"},      // solo steps rr 19, lbn 17, weighted 17: the tie goes to lbn
		{61, "weighted"}, // rr 30, lbn 24, weighted 22
	} {
		spec := satSpec(t, tc.seed)
		if got := soloWinner(t, spec, "rr", "lbn", "weighted"); got != tc.winner {
			t.Fatalf("seed %d: fewest solo steps under %q, want %q", tc.seed, got, tc.winner)
		}
		solo := spec
		solo.Mapper = tc.winner
		var first *JobResult
		for _, portfolio := range [][]string{{"rr", "lbn", "weighted"}, {"auto"}} {
			spec.Portfolio = portfolio
			for _, workers := range []int{1, 2, 4} {
				s := New(Config{QueueDepth: 4, Workers: workers})
				for run := 0; run < 3; run++ {
					job, err := s.Submit(spec)
					if err != nil {
						t.Fatal(err)
					}
					done := waitState(t, s, job.ID.Seq, StateDone, 30*time.Second)
					if done.Winner != tc.winner {
						t.Fatalf("seed %d, portfolio %v, %d workers, run %d: winner %q, want %q",
							tc.seed, portfolio, workers, run, done.Winner, tc.winner)
					}
					checkLedger(t, done)
					if first == nil {
						first = done.Result
						matchSerial(t, solo, first)
					} else if !reflect.DeepEqual(done.Result, first) {
						t.Fatalf("seed %d, portfolio %v, %d workers, run %d: result differs from the first run",
							tc.seed, portfolio, workers, run)
					}
				}
				s.Close()
			}
		}
	}
}

// TestRaceOutcomeIgnoresArrivalOrder feeds the same three attempt outcomes
// to the race bookkeeping in all six arrival orders: every order names the
// same winner and failure and leaves the losers the same ceilings.
func TestRaceOutcomeIgnoresArrivalOrder(t *testing.T) {
	type outcome struct {
		steps int64
		ok    bool
	}
	orders := [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, tc := range []struct {
		name         string
		outcomes     [3]outcome
		best, failed int
	}{
		{"tie goes to the first listed", [3]outcome{{19, true}, {17, true}, {17, true}}, 1, -1},
		{"fewest steps", [3]outcome{{30, true}, {24, true}, {22, true}}, 2, -1},
		{"a failure does not decide", [3]outcome{{0, false}, {30, true}, {24, true}}, 2, 0},
		{"no success", [3]outcome{{0, false}, {0, false}, {0, false}}, -1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, order := range orders {
				r := newRace(3)
				for _, i := range order {
					if o := tc.outcomes[i]; o.ok {
						r.succeed(i, o.steps)
					} else {
						r.fail(i)
					}
				}
				if r.best != tc.best || r.failed != tc.failed {
					t.Fatalf("order %v: best %d, failed %d; want %d and %d", order, r.best, r.failed, tc.best, tc.failed)
				}
				for i := range r.ceilings {
					want := int64(math.MaxInt64)
					switch {
					case tc.best < 0 || i == tc.best:
						continue
					case i < tc.best:
						want = tc.outcomes[tc.best].steps
					default:
						want = tc.outcomes[tc.best].steps - 1
					}
					if got := r.ceilings[i].Load(); got != want {
						t.Fatalf("order %v: attempt %d ceiling %d, want %d", order, i, got, want)
					}
				}
			}
		})
	}
}

// TestPortfolioLoserStopsAtItsCeiling: an attempt that starts with the
// race's best already known at T steps stops itself at the first observer
// check past its ceiling (T-1, listed after the best) instead of running
// to completion. One worker runs the attempts one after the other, so the
// ceiling is set before the loser starts; two workers set it from another
// goroutine while the loser runs.
func TestPortfolioLoserStopsAtItsCeiling(t *testing.T) {
	spec := JobSpec{Kind: "fib", N: 10, Topology: "torus:4x4", ProcsPerNode: 4, Link: LinkSpec{LinkLatency: 1000}}
	steps := soloSteps(t, spec, "rr", "random")
	if steps[1]-steps[0] < 4*progressCheckSteps {
		t.Fatalf("solo steps rr %d, random %d: want random slower by at least %d", steps[0], steps[1], 4*progressCheckSteps)
	}
	race := func(workers int, portfolio ...string) Job {
		s := New(Config{QueueDepth: 4, Workers: workers})
		defer s.Close()
		spec := spec
		spec.Portfolio = portfolio
		job, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		done := waitState(t, s, job.ID.Seq, StateDone, 30*time.Second)
		if done.Winner != "rr" {
			t.Fatalf("race %v on %d workers won by %q, want rr", portfolio, workers, done.Winner)
		}
		checkLedger(t, done)
		solo := spec
		solo.Portfolio, solo.Mapper = nil, "rr"
		matchSerial(t, solo, done.Result)
		return done
	}

	done := race(1, "rr", "random")
	loser, ceiling := done.Attempts[1], steps[0]-1
	if loser.Steps <= ceiling || loser.Steps-ceiling > 2*progressCheckSteps {
		t.Fatalf("loser %+v under ceiling %d: want stopped past it by at most %d steps", loser, ceiling, 2*progressCheckSteps)
	}
	race(2, "rr", "random")

	// Listed first, the slower attempt completes before any best is known;
	// the faster one then displaces it.
	done = race(1, "random", "rr")
	if loser := done.Attempts[0]; loser.Steps != steps[1] {
		t.Fatalf("displaced attempt %+v, want its full %d solo steps recorded", loser, steps[1])
	}
}

// TestPortfolioCancelSettlesAllAttempts: cancelling a racing job records the
// job and every attempt cancelled, with no winner.
func TestPortfolioCancelSettlesAllAttempts(t *testing.T) {
	spec := slowSpec()
	spec.Portfolio = []string{"rr", "lbn"}
	backends(t, Config{QueueDepth: 4, Workers: 2}, func(t *testing.T, s *Service) {
		job, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, s, job.ID.Seq, StateRunning, 10*time.Second)
		if _, err := s.Cancel(job.ID.Seq); err != nil {
			t.Fatal(err)
		}
		got := waitState(t, s, job.ID.Seq, StateCancelled, 10*time.Second)
		if got.Winner != "" {
			t.Fatalf("cancelled race has winner %q", got.Winner)
		}
		if len(got.Attempts) != 2 {
			t.Fatalf("attempt ledger has %d entries, want 2", len(got.Attempts))
		}
		for _, a := range got.Attempts {
			if a.State != StateCancelled {
				t.Fatalf("attempt %+v after job cancel, want cancelled", a)
			}
		}
	})
}

// TestPortfolioDeadlineFailsRace: the job's deadline ends every attempt,
// and with no attempt successful the job fails with the deadline's error.
func TestPortfolioDeadlineFailsRace(t *testing.T) {
	spec := slowSpec()
	spec.Portfolio = []string{"rr", "lbn"}
	spec.TimeoutMs = 50
	s := New(Config{QueueDepth: 4, Workers: 2})
	defer s.Close()
	job, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, s, job.ID.Seq, StateFailed, 10*time.Second)
	if !strings.Contains(got.Error, "deadline") || got.Winner != "" {
		t.Fatalf("race = error %q, winner %q; want the deadline's error and no winner", got.Error, got.Winner)
	}
	for _, a := range got.Attempts {
		if a.State != StateFailed && a.State != StateCancelled {
			t.Fatalf("attempt %+v after the deadline, want failed or cancelled", a)
		}
	}
}

// TestPortfolioRecoveryReRaces: a portfolio job that was mid-race when the
// process died is re-admitted and re-raced by the next service, and the
// fresh race's ledger replaces the aborted one.
func TestPortfolioRecoveryReRaces(t *testing.T) {
	spec := satSpec(t, 61)
	spec.Portfolio = []string{"rr", "lbn"}
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Stage the crash state directly in the store: submitted, started, a
	// partial attempt ledger journaled, then the process died.
	dir := t.TempDir()
	st := openStore(t, dir)
	sj, err := st.Submit(raw, time.Now().UTC())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Start(sj.ID, time.Now().UTC()); err != nil {
		t.Fatal(err)
	}
	stale, _ := json.Marshal(attemptsDoc{Attempts: []Attempt{
		{Strategy: "rr", State: StateRunning},
		{Strategy: "lbn", State: StateRunning},
	}})
	if err := st.Annotate(sj.ID, annotationAttempts, stale); err != nil {
		t.Fatal(err)
	}
	st.Close() // crash-equivalent: no transition records written

	s := New(Config{QueueDepth: 4, Workers: 2, Store: openStore(t, dir)})
	defer s.Close()
	done := waitState(t, s, sj.ID, StateDone, 30*time.Second)
	if want := soloWinner(t, spec, spec.Portfolio...); done.Winner != want {
		t.Fatalf("re-raced job won by %q, want %q", done.Winner, want)
	}
	checkLedger(t, done)
	for _, a := range done.Attempts {
		if !a.State.Terminal() {
			t.Fatalf("re-raced ledger still carries a live attempt: %+v", a)
		}
	}
	if done.Result == nil || !done.Result.SAT.Verified {
		t.Fatalf("re-raced result not verified: %+v", done.Result)
	}
}

// TestPortfolioPromotionReRaces: a race its primary never got to run is
// raced by the promoted standby, to the winner the step rule names.
func TestPortfolioPromotionReRaces(t *testing.T) {
	primary, psrv := startNode(t, NodeConfig{
		Dir:        t.TempDir(),
		QueueDepth: 8,
		Workers:    1,
	})
	_, ssrv := startNode(t, NodeConfig{
		Dir:        t.TempDir(),
		QueueDepth: 8,
		Workers:    3,
		Follow:     psrv.URL,
		PullEvery:  10 * time.Millisecond,
	})
	pc := &Client{Base: psrv.URL}
	sc := &Client{Base: ssrv.URL}
	ctx := context.Background()

	// Pin the primary's only worker so the race stays queued.
	if _, err := pc.Submit(ctx, slowSpec()); err != nil {
		t.Fatal(err)
	}
	spec := satSpec(t, 61)
	spec.Portfolio = []string{"rr", "lbn", "weighted"}
	job, err := pc.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	pst, err := pc.ReplicationStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, sc, pst.LSN)
	psrv.CloseClientConnections()
	psrv.Close()
	primary.Close()

	if _, err := sc.Promote(ctx); err != nil {
		t.Fatal(err)
	}
	done, err := sc.Wait(ctx, job.ID, 10*time.Millisecond)
	if err != nil || done.State != StateDone {
		t.Fatalf("re-raced job = %+v (%v), want done", done, err)
	}
	if done.Winner != "weighted" {
		t.Fatalf("re-raced job won by %q, want weighted", done.Winner)
	}
	checkLedger(t, done)
	solo := spec
	solo.Portfolio, solo.Mapper = nil, "weighted"
	matchSerial(t, solo, done.Result)
}

// TestSoloJobHasNoAttemptLedger pins the wire shape: solo jobs carry no
// attempts or winner fields, before and after a restart, and the terminal
// frame of their live event stream carries no strategy.
func TestSoloJobHasNoAttemptLedger(t *testing.T) {
	dir := t.TempDir()
	s1 := New(Config{QueueDepth: 4, Workers: 1, Store: openStore(t, dir)})
	// Hold the only worker so the subscription below attaches to the solo
	// job's live broker, not to a frame synthesized from its finished record.
	blocker, err := s1.Submit(slowSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s1, blocker.ID.Seq, StateRunning, 10*time.Second)
	job, err := s1.Submit(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	frames, unsubscribe, err := s1.Subscribe(job.ID.Seq)
	if err != nil {
		t.Fatal(err)
	}
	defer unsubscribe()
	if _, err := s1.Cancel(blocker.ID.Seq); err != nil {
		t.Fatal(err)
	}
	var last Progress
	for p := range frames {
		last = p
	}
	frame, err := json.Marshal(last)
	if err != nil {
		t.Fatal(err)
	}
	if last.State != StateDone || strings.Contains(string(frame), "strategy") {
		t.Fatalf("solo terminal frame = %s, want done with no strategy", frame)
	}
	done := waitState(t, s1, job.ID.Seq, StateDone, 10*time.Second)
	if done.Winner != "" || done.Attempts != nil {
		t.Fatalf("solo job carries race fields: winner=%q attempts=%+v", done.Winner, done.Attempts)
	}
	s1.Close()
	s2 := New(Config{QueueDepth: 4, Workers: 1, Store: openStore(t, dir)})
	defer s2.Close()
	got, _ := s2.Get(job.ID.Seq)
	if got.Winner != "" || got.Attempts != nil {
		t.Fatalf("restored solo job carries race fields: winner=%q attempts=%+v", got.Winner, got.Attempts)
	}
}

// TestPortfolioAttemptsSurviveSnapshotCompaction: the attempt ledger of a
// finished race survives journal compaction into a snapshot.
func TestPortfolioAttemptsSurviveSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(store.FileConfig{Dir: dir, SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Config{QueueDepth: 8, Workers: 2, Store: st})
	spec := quickSpec()
	spec.Portfolio = []string{"rr", "lbn"}
	job, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := waitState(t, s1, job.ID.Seq, StateDone, 10*time.Second)
	// Push enough jobs through to trigger at least one compaction.
	for i := 0; i < 4; i++ {
		filler, err := s1.Submit(quickSpec())
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, s1, filler.ID.Seq, StateDone, 10*time.Second)
	}
	s1.Close()

	s2 := New(Config{QueueDepth: 8, Workers: 1, Store: openStore(t, dir)})
	defer s2.Close()
	got, ok := s2.Get(job.ID.Seq)
	if !ok {
		t.Fatal("portfolio job vanished across compaction")
	}
	if got.Winner != want.Winner || !reflect.DeepEqual(got.Attempts, want.Attempts) {
		t.Fatalf("ledger changed across compaction:\nbefore: winner=%q %+v\nafter:  winner=%q %+v",
			want.Winner, want.Attempts, got.Winner, got.Attempts)
	}
}
