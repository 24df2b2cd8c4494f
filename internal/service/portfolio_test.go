package service

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

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

// TestPortfolioBitIdenticalToSoloWinner is the tentpole acceptance check: a
// portfolio race's job result is bit-identical to a solo run of whichever
// strategy won, and the attempt ledger records exactly one winner with every
// loser cancelled.
func TestPortfolioBitIdenticalToSoloWinner(t *testing.T) {
	spec := satSpec(t, 41)
	spec.Portfolio = []string{"rr", "lbn", "weighted"}

	backends(t, Config{QueueDepth: 4, Workers: 4}, func(t *testing.T, s *Service) {
		job, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		done := waitState(t, s, job.ID.Seq, StateDone, 30*time.Second)
		if done.Winner == "" {
			t.Fatal("done portfolio job has no winner")
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

// TestPortfolioAutoLearnsOrdering: with one worker, attempts run strictly in
// launch order, so the first-launched strategy of a quick job always wins.
// After a recorded win, a ["auto"] submission must launch the learned
// strategy first — and the learned ranking must survive a restart, rebuilt
// from the store's attempt ledgers.
func TestPortfolioAutoLearnsOrdering(t *testing.T) {
	dir := t.TempDir()
	s1 := New(Config{QueueDepth: 4, Workers: 1, Store: openStore(t, dir)})

	// Teach the service that "weighted" wins for kind sum. defaultPortfolio
	// launches rr first, so without this win an auto race would pick rr.
	teach := quickSpec()
	teach.Portfolio = []string{"weighted", "lbn"}
	job, err := s1.Submit(teach)
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, s1, job.ID.Seq, StateDone, 10*time.Second)
	if done.Winner != "weighted" {
		t.Fatalf("single-worker race winner = %q, want the first-launched %q", done.Winner, "weighted")
	}

	auto := quickSpec()
	auto.Portfolio = []string{"auto"}
	job, err = s1.Submit(auto)
	if err != nil {
		t.Fatal(err)
	}
	done = waitState(t, s1, job.ID.Seq, StateDone, 10*time.Second)
	if done.Winner != "weighted" {
		t.Fatalf("auto race winner = %q, want learned %q launched first", done.Winner, "weighted")
	}
	if len(done.Attempts) != 3 {
		t.Fatalf(`auto expanded to %d attempts, want 3: %+v`, len(done.Attempts), done.Attempts)
	}
	s1.Close()

	// Restart: the stats table is rebuilt from persisted attempt ledgers.
	s2 := New(Config{QueueDepth: 4, Workers: 1, Store: openStore(t, dir)})
	defer s2.Close()
	job, err = s2.Submit(auto)
	if err != nil {
		t.Fatal(err)
	}
	done = waitState(t, s2, job.ID.Seq, StateDone, 10*time.Second)
	if done.Winner != "weighted" {
		t.Fatalf("post-restart auto winner = %q, want %q from the rebuilt stats", done.Winner, "weighted")
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
	if done.Winner == "" {
		t.Fatal("re-raced job has no winner")
	}
	for _, a := range done.Attempts {
		if !a.State.Terminal() {
			t.Fatalf("re-raced ledger still carries a live attempt: %+v", a)
		}
	}
	if done.Result == nil || !done.Result.SAT.Verified {
		t.Fatalf("re-raced result not verified: %+v", done.Result)
	}
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
