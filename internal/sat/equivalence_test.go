package sat

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
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
	for _, e := range p.live {
		rc := Clause{}
		for _, l := range p.clauses.clause(p.clauses.id(e)) {
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
	for i, e := range p.live {
		// Compared in place: materialising every clause of every state
		// dominated the test's run time.
		want, n := r.Clauses[i], 0
		for _, l := range p.clauses.clause(p.clauses.id(e)) {
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
		if k := p.clauses.count(e); k != min(n, p.clauses.maxCount) {
			t.Fatalf("%s: clause %d has %d literals left, its entry counts %d (max %d)", where, i, n, k, p.clauses.maxCount)
		}
		if i > 0 && p.clauses.id(p.live[i-1]) >= p.clauses.id(e) {
			t.Fatalf("%s: live ids out of formula order at %d", where, i)
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
	sameState(t, "receiver of SimplifyWith", p, r)
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
		sameState(t, "receiver of WithAssignment", sp, sr)
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
		{NumVars: 60, Clauses: append(negatedUnits(59), longClause())},              // a saturated count recounted down to a unit
		{NumVars: 60, Clauses: append([]Clause{longClause()}, negatedUnits(60)...)}, // ... and down to empty
		{NumVars: 2, Clauses: []Clause{{1, -1}, {-1, 2}, {1, -2}}},                  // a one-variable tautology is dropped, never empty
	}
}

// longClause is longer than a live entry's count field holds: each of the
// variables 1-59 five times, then 60 once, 296 literals in all. Its count
// saturates until enough of them are falsified, and falsifying one variable
// removes five occurrences at once.
func longClause() Clause {
	var c Clause
	for range 5 {
		for v := 1; v < 60; v++ {
			c = append(c, Lit(v))
		}
	}
	return append(c, 60)
}

// negatedUnits returns the unit clauses {-1} ... {-n}.
func negatedUnits(n int) []Clause {
	var units []Clause
	for v := 1; v <= n; v++ {
		units = append(units, Clause{Lit(-v)})
	}
	return units
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

// TestLiveEntryLayout walks the id/count split of a live entry across its
// edges: the count field is countBits wide until the ids need more room, and
// never narrower than one bit.
func TestLiveEntryLayout(t *testing.T) {
	for _, tc := range []struct {
		clauses  int
		idBits   uint
		maxCount int
	}{
		{0, 24, 255},
		{1, 24, 255},
		{1 << 24, 24, 255},
		{1<<24 + 1, 25, 127},
		{1 << 30, 30, 3},
		{1<<30 + 1, 31, 1},
		{1 << 31, 31, 1},
	} {
		idBits, maxCount := layout(tc.clauses)
		if idBits != tc.idBits || maxCount != tc.maxCount {
			t.Errorf("layout(%d) = %d id bits, max count %d; want %d, %d", tc.clauses, idBits, maxCount, tc.idBits, tc.maxCount)
			continue
		}
		a := &arena{idBits: idBits, maxCount: maxCount}
		for _, c := range []int32{0, 1, int32(max(tc.clauses-1, 0))} {
			for _, k := range []int{0, 1, maxCount - 1, maxCount, maxCount + 1, 1 << 30} {
				if e := a.entry(c, k); a.id(e) != c || a.count(e) != min(k, maxCount) {
					t.Errorf("%d clauses: entry(%d, %d) reads back as id %d, count %d", tc.clauses, c, k, a.id(e), a.count(e))
				}
			}
		}
	}
}

// A formula needs 2^24 clauses before its count field narrows, too many to
// build here, so the narrow layouts are forced onto ordinary formulas: at
// one bit every live clause with a literal left is saturated and recounted.
func TestNarrowCountMatchesReference(t *testing.T) {
	formulas := handWrittenFormulas()
	rng := rand.New(rand.NewSource(7))
	for range 40 {
		n := 5 + rng.Intn(26)
		formulas = append(formulas, Random3SAT(rng, n, int(4.26*float64(n))))
	}
	for _, idBits := range []uint{30, 31} {
		for i, f := range formulas {
			for _, h := range allHeuristics {
				for _, mode := range allModes {
					p := NewProblem(f)
					a := p.clauses
					a.idBits, a.maxCount = idBits, 1<<(32-idBits)-1
					for c := range p.live {
						p.live[c] = a.entry(int32(c), len(a.clause(int32(c))))
					}
					budget := 40
					walkBoth(t, p, newRefProblem(f), h, mode, &budget)
					if t.Failed() {
						t.Fatalf("%d id bits, formula %d %v/%v: %v", idBits, i, h, mode, f)
					}
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

var branchSink *Problem

// TestBranchAllocBudget pins what one branch costs on a uf50 problem: three
// allocations (the Problem, its assignment, its live entries) of 1040 bytes
// in all, as before the occurrence index. The index and the layout are per
// formula; anything added per branch shows here before it shows as the
// harness's peak RSS.
func TestBranchAllocBudget(t *testing.T) {
	const wantAllocs, wantBytes = 3, 1040
	p := NewProblem(benchFormula(50, 218))
	branch := func() { branchSink = p.WithAssignment(NewLit(1, true)) }
	if got := testing.AllocsPerRun(100, branch); got != wantAllocs {
		t.Errorf("WithAssignment made %.0f allocations, want %d", got, wantAllocs)
	}
	// Read like AllocsPerRun reads its count: one P, after a warm-up run.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	branch()
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		branch()
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got != wantBytes {
		t.Errorf("WithAssignment allocated %d bytes, want %d", got, wantBytes)
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
