package sat

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"hypersolve/internal/core"
	"hypersolve/internal/mapping"
	"hypersolve/internal/mesh"
)

// residual materialises what a Problem's live clauses read as: the original
// literals, in order, minus those whose variable is assigned. It is what the
// reference representation stores in Clauses.
func residual(p *Problem) []Clause {
	out := make([]Clause, 0, len(p.live))
	for _, c := range p.live {
		rc := Clause{}
		for _, l := range p.clauses.clause(c) {
			if p.Assign[l.Var()] == 0 {
				rc = append(rc, l)
			}
		}
		out = append(out, rc)
	}
	return out
}

var (
	allHeuristics = []Heuristic{FirstUnassigned, MostFrequent, JeroslowWang, DLIS}
	allModes      = []SimplifyMode{OnePass, Fixpoint}
)

// sameState fails the test unless the view and the copy read identically.
func sameState(t *testing.T, where string, p *Problem, r *refProblem) {
	t.Helper()
	if len(p.live) != len(r.Clauses) {
		t.Fatalf("%s: %d clauses left, reference has %d\n got %v\nwant %v", where, len(p.live), len(r.Clauses), residual(p), r.Clauses)
	}
	for i, c := range p.live {
		// Compared in place: materialising every clause of every state
		// dominated the test's run time.
		want, n := r.Clauses[i], 0
		for _, l := range p.clauses.clause(c) {
			if p.Assign[l.Var()] != 0 {
				continue
			}
			if n >= len(want) || want[n] != l {
				t.Fatalf("%s: clause %d reads %v, reference %v", where, i, residual(p)[i], want)
			}
			n++
		}
		if n != len(want) {
			t.Fatalf("%s: clause %d reads %v, reference %v", where, i, residual(p)[i], want)
		}
	}
	if !slices.Equal(p.Assign, r.Assign) {
		t.Fatalf("%s: assignment %v, reference %v", where, p.Assign, r.Assign)
	}
	if p.HasEmptyClause() != r.HasEmptyClause() || p.Consistent() != r.Consistent() || p.FreeVars() != r.FreeVars() {
		t.Fatalf("%s: empty/consistent/free = %v/%v/%d, reference %v/%v/%d", where,
			p.HasEmptyClause(), p.Consistent(), p.FreeVars(), r.HasEmptyClause(), r.Consistent(), r.FreeVars())
	}
}

// walkBoth explores the DPLL tree over both representations in lock step,
// comparing the state after every SimplifyWith and WithAssignment and the
// literal every selection returns, for at most *budget nodes.
func walkBoth(t *testing.T, p *Problem, r *refProblem, h Heuristic, mode SimplifyMode, budget *int) {
	t.Helper()
	if *budget <= 0 {
		return
	}
	*budget--
	sp, ps := p.SimplifyWith(mode)
	sr, rs := r.SimplifyWith(mode)
	if ps != rs {
		t.Fatalf("simplify stats %+v, reference %+v", ps, rs)
	}
	sameState(t, "after SimplifyWith", sp, sr)
	if sp.HasEmptyClause() || sp.Consistent() {
		return
	}
	lit, want := SelectLiteral(sp, h), refSelectLiteral(sr, h)
	if lit != want {
		t.Fatalf("%v selected %v, reference %v", h, lit, want)
	}
	for _, l := range []Lit{lit, lit.Negate()} {
		bp, br := sp.WithAssignment(l), sr.WithAssignment(l)
		sameState(t, "after WithAssignment", bp, br)
		walkBoth(t, bp, br, h, mode, budget)
	}
}

// handWrittenFormulas are the shapes random 3-SAT never produces.
func handWrittenFormulas() []Formula {
	return []Formula{
		{NumVars: 0},
		{NumVars: 3},
		{NumVars: 2, Clauses: []Clause{{}}},
		{NumVars: 3, Clauses: []Clause{{1, 2}, {}, {-1, 3}}},
		{NumVars: 3, Clauses: []Clause{{1, 1, 2}, {-2}, {-1, 3}, {-3, -1}}},       // {x,x,y} is not unit once y is falsified
		{NumVars: 3, Clauses: []Clause{{1, -1, 2}, {-2, 3}, {-3, -2}, {2, 2}}},    // tautology, duplicate-only clause
		{NumVars: 4, Clauses: []Clause{{1}, {-1, 2}, {-2, 3}, {-3, 4}, {-4, -1}}}, // unit chain to a conflict
		indexSkipFormula,
		{NumVars: 6, Clauses: []Clause{{1, 6}, {2, 6}, {1}, {2}, {3}, {-3, 4, 5}, {-2, -4}, {-4, -5}, {4, 5, -1}}}, // two skips in one scan
		{NumVars: 5, Clauses: []Clause{{1, 2, 3}, {1, 2, 3}, {-1, -2, -3}, {4, -5}, {-4, 5}, {4, 5}}},
	}
}

// indexSkipFormula pins the OnePass unit scan: at i=1 the unit {1} is
// propagated, which also drops {1,5} before it, so the list shifts by two
// while i stays: {2} slides to index 0 and is never examined.
var indexSkipFormula = Formula{NumVars: 5, Clauses: []Clause{{1, 5}, {1}, {2}, {-2, 3, 4}, {-3, -4}}}

func TestOnePassIndexSkip(t *testing.T) {
	s, stats := NewProblem(indexSkipFormula).SimplifyWith(OnePass)
	if want := (SimplifyStats{UnitPropagations: 1}); stats != want {
		t.Errorf("stats %+v, want %+v: the skipped unit clause {2} must not be propagated", stats, want)
	}
	if got, want := residual(s), []Clause{{2}, {-2, 3, 4}, {-3, -4}}; !reflect.DeepEqual(got, want) {
		t.Errorf("residual %v, want %v", got, want)
	}
}

func TestProblemMatchesReference(t *testing.T) {
	formulas := handWrittenFormulas()
	rng := rand.New(rand.NewSource(20170814))
	for len(formulas) < 420 {
		n := 5 + rng.Intn(46)
		ratio := 3.5 + 1.5*rng.Float64()
		formulas = append(formulas, Random3SAT(rng, n, int(ratio*float64(n))))
	}
	for i, f := range formulas {
		for _, h := range allHeuristics {
			for _, mode := range allModes {
				opts := Options{Heuristic: h, Simplify: mode, MaxCalls: 150}
				if got, want := Solve(f, opts), refSolve(f, opts); !reflect.DeepEqual(got, want) {
					t.Fatalf("formula %d %v/%v: Solve = %+v, reference %+v", i, h, mode, got, want)
				}
				budget := 40
				walkBoth(t, NewProblem(f), newRefProblem(f), h, mode, &budget)
				if t.Failed() {
					t.Fatalf("formula %d %v/%v: %v", i, h, mode, f)
				}
			}
		}
	}
}

// Re-assigning an assigned variable is something no solver path does, but
// the API allows it and the two representations must still agree.
func TestReassignMatchesReference(t *testing.T) {
	f := Formula{NumVars: 3, Clauses: []Clause{{1, 2}, {-1, 3}, {-1, -3, 2}}}
	p, r := NewProblem(f).WithAssignment(1), newRefProblem(f).WithAssignment(1)
	sameState(t, "x1", p, r)
	sameState(t, "x1 then !x1", p.WithAssignment(-1), r.WithAssignment(-1))
}

// FuzzProblemEquivalence feeds DIMACS bytes through the parser and then both
// representations: every heuristic and mode must produce the same Result.
func FuzzProblemEquivalence(f *testing.F) {
	f.Add([]byte("p cnf 3 2\n1 -3 0\n2 3 -1 0\n")) // the rest of the seeds are in testdata/fuzz
	f.Fuzz(func(t *testing.T, data []byte) {
		formula, err := ParseDIMACS(bytes.NewReader(data))
		if err != nil || formula.NumVars > 64 || len(formula.Clauses) > 256 {
			return
		}
		lits := 0
		for _, c := range formula.Clauses {
			lits += len(c)
		}
		if lits > 1024 {
			return // keep one exec in the milliseconds
		}
		for _, h := range allHeuristics {
			for _, mode := range allModes {
				opts := Options{Heuristic: h, Simplify: mode, MaxCalls: 150}
				if got, want := Solve(formula, opts), refSolve(formula, opts); !reflect.DeepEqual(got, want) {
					t.Fatalf("%v/%v: Solve = %+v, reference %+v", h, mode, got, want)
				}
			}
		}
		budget := 40
		walkBoth(t, NewProblem(formula), newRefProblem(formula), FirstUnassigned, OnePass, &budget)
	})
}

// uf50Ladder returns 24 unsatisfiable uf50 instances whose sequential search
// takes 600-1800 DPLL calls: the difficulty band of the benchmark's lib-uf50
// workload.
var uf50Ladder = sync.OnceValue(func() []Formula {
	pool, err := GenerateSuite(SuiteParams{Count: 128, NumVars: 50, NumClauses: 213, Seed: 1})
	if err != nil {
		panic(err)
	}
	var ladder []Formula
	for _, f := range pool {
		res := Solve(f, Options{MaxCalls: 1800})
		if res.Status == UNSAT && res.Calls >= 600 && len(ladder) < 24 {
			ladder = append(ladder, f)
		}
	}
	if len(ladder) < 24 {
		panic(fmt.Sprintf("uf50 pool holds %d usable instances, want 24", len(ladder)))
	}
	return ladder
})

func ladderConfig() core.Config {
	return core.Config{Topology: mesh.MustTorus(14, 14), Mapper: mapping.NewLeastBusy(), Seed: 1}
}

// The whole stack must not be able to tell the representations apart: same
// root value, same simulator statistics, same per-process counts.
func TestTaskMatchesReferenceOnLadder(t *testing.T) {
	if testing.Short() {
		t.Skip("24 uf50 solves on torus:14x14, twice")
	}
	for i, f := range uf50Ladder() {
		cfg := ladderConfig()
		cfg.Task = Task(FirstUnassigned)
		got, err := core.RunOnce(cfg, NewProblem(f))
		if err != nil {
			t.Fatal(err)
		}
		cfg.Task = refTask(FirstUnassigned, OnePass)
		want, err := core.RunOnce(cfg, newRefProblem(f))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("instance %d: core.Result differs\n got %+v\nwant %+v", i, got.Stats, want.Stats)
		}
	}
}

// A portfolio hands one *Problem to every attempt: four machines solving it
// from four goroutines must not interfere (run with -race -count=10).
func TestSharedProblemAcrossMachines(t *testing.T) {
	f := Random3SAT(rand.New(rand.NewSource(9)), 30, 128)
	p := NewProblem(f)
	results := make([]core.Result, 4)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := core.Config{Topology: mesh.MustTorus(6, 6), Mapper: mapping.NewLeastBusy(), Task: Task(FirstUnassigned), Seed: 1}
			res, err := core.RunOnce(cfg, p)
			if err != nil {
				t.Error(err)
			}
			results[i] = res
		}()
	}
	wg.Wait()
	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Errorf("machine %d disagrees with machine 0 on a shared problem", i)
		}
	}
	if !results[0].OK || results[0].Value.(Outcome).Status != Solve(f, Options{}).Status {
		t.Errorf("shared problem solved wrongly: %+v", results[0].Value)
	}
}

// TestSATSolveAllocBudget keeps the clause copy from creeping back. With the
// clause-copying Problem and goroutine frames this solve (the ladder's first
// instance, 1271 frames) made 303 860 allocations; the budget is a quarter of
// that. The arena version makes about 47 000.
func TestSATSolveAllocBudget(t *testing.T) {
	const parentAllocs = 303860
	f := uf50Ladder()[0]
	cfg := ladderConfig()
	cfg.Task = Task(FirstUnassigned)
	got := testing.AllocsPerRun(3, func() {
		if _, err := core.RunOnce(cfg, NewProblem(f)); err != nil {
			t.Fatal(err)
		}
	})
	if got > parentAllocs/4 {
		t.Errorf("one uf50 solve made %.0f allocations, budget %d", got, parentAllocs/4)
	}
}
