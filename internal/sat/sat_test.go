package sat

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestLitBasics(t *testing.T) {
	l := NewLit(5, true)
	if l.Var() != 5 || !l.Positive() {
		t.Errorf("NewLit(5,true) = %v", l)
	}
	n := l.Negate()
	if n.Var() != 5 || n.Positive() {
		t.Errorf("Negate = %v", n)
	}
	if n.Negate() != l {
		t.Error("double negation is not identity")
	}
	if l.String() != "5" || n.String() != "-5" {
		t.Errorf("String: %q %q", l.String(), n.String())
	}
}

func TestAssignmentOps(t *testing.T) {
	a := NewAssignment(4)
	a.Set(NewLit(2, true))
	a.Set(NewLit(3, false))
	if a.Value(2) != 1 || a.Value(3) != -1 || a.Value(1) != 0 {
		t.Errorf("values: %v", a)
	}
	if !a.Satisfies(NewLit(2, true)) || a.Satisfies(NewLit(2, false)) {
		t.Error("Satisfies wrong for var 2")
	}
	if !a.Falsifies(NewLit(3, true)) || a.Falsifies(NewLit(1, true)) {
		t.Error("Falsifies wrong")
	}
	if a.Assigned() != 2 {
		t.Errorf("Assigned = %d, want 2", a.Assigned())
	}
	b := a.Clone()
	b.Set(NewLit(1, true))
	if a.Value(1) != 0 {
		t.Error("Clone aliases the original")
	}
}

func TestVerify(t *testing.T) {
	// (x1 | !x2) & (x2 | x3)
	f := Formula{NumVars: 3, Clauses: []Clause{{1, -2}, {2, 3}}}
	a := NewAssignment(3)
	a.Set(NewLit(1, true))
	a.Set(NewLit(2, false))
	a.Set(NewLit(3, true))
	if !Verify(f, a) {
		t.Error("satisfying assignment rejected")
	}
	b := NewAssignment(3)
	b.Set(NewLit(1, false))
	b.Set(NewLit(2, false))
	b.Set(NewLit(3, false))
	if Verify(f, b) {
		t.Error("falsifying assignment accepted")
	}
	// Unassigned variables default to false: x2 unassigned falsifies x2|x3
	// unless x3 true.
	c := NewAssignment(3)
	c.Set(NewLit(1, true))
	if Verify(f, c) {
		t.Error("incomplete assignment should not verify here")
	}
}

func TestFormulaValidate(t *testing.T) {
	good := Formula{NumVars: 2, Clauses: []Clause{{1, -2}}}
	if err := good.Validate(); err != nil {
		t.Error(err)
	}
	for _, bad := range []Formula{
		{NumVars: -1},
		{NumVars: 1, Clauses: []Clause{{0}}},
		{NumVars: 1, Clauses: []Clause{{2}}},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate(%v): expected error", bad)
		}
	}
}

func TestWithAssignment(t *testing.T) {
	// (x1 | x2) & (!x1 | x3) & (x2)
	p := NewProblem(Formula{NumVars: 3, Clauses: []Clause{{1, 2}, {-1, 3}, {2}}})
	q := p.WithAssignment(NewLit(1, true))
	// Clause 1 satisfied and dropped; clause 2 loses !x1; clause 3 intact.
	qc := residual(q)
	if len(qc) != 2 {
		t.Fatalf("clauses after assignment: %v", qc)
	}
	if len(qc[0]) != 1 || qc[0][0] != 3 {
		t.Errorf("clause 2 should reduce to {3}: %v", qc[0])
	}
	// Original untouched.
	if pc := residual(p); len(pc) != 3 || len(pc[1]) != 2 {
		t.Error("WithAssignment mutated the receiver")
	}
}

func TestSimplifyUnitPropagation(t *testing.T) {
	// (x1) & (!x1 | x2) & (!x2 | x3) — chains to all true.
	p := NewProblem(Formula{NumVars: 3, Clauses: []Clause{{1}, {-1, 2}, {-2, 3}}})
	s, stats := p.Simplify()
	if !s.Consistent() {
		t.Fatalf("expected full simplification, clauses: %v", residual(s))
	}
	if stats.UnitPropagations < 3 {
		t.Errorf("UnitPropagations = %d, want >= 3", stats.UnitPropagations)
	}
	for v := 1; v <= 3; v++ {
		if s.Assign.Value(v) != 1 {
			t.Errorf("var %d = %d, want 1", v, s.Assign.Value(v))
		}
	}
}

func TestSimplifyPureLiteral(t *testing.T) {
	// x1 occurs only positively; x2 both; x3 only negatively.
	p := NewProblem(Formula{NumVars: 3, Clauses: []Clause{{1, 2}, {1, -2}, {-3, 2}}})
	s, stats := p.Simplify()
	if stats.PureAssignments == 0 {
		t.Error("expected pure literal assignments")
	}
	if !s.Consistent() {
		t.Errorf("expected consistency, clauses: %v", residual(s))
	}
	if s.Assign.Value(1) != 1 {
		t.Errorf("pure x1 should be true, got %d", s.Assign.Value(1))
	}
}

func TestSimplifyDetectsConflict(t *testing.T) {
	// (x1) & (!x1) — unit propagation exposes the empty clause.
	p := NewProblem(Formula{NumVars: 1, Clauses: []Clause{{1}, {-1}}})
	s, _ := p.Simplify()
	if !s.HasEmptyClause() {
		t.Error("conflict not detected")
	}
}

func TestSimplifyPreservesSatisfiability(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 50; i++ {
		f := Random3SAT(rng, 8, 30)
		want := SolveBruteForce(f).Status
		s, _ := NewProblem(f).Simplify()
		// Re-solve the simplified residual plus accumulated assignment.
		if s.HasEmptyClause() {
			if want != UNSAT {
				t.Fatalf("case %d: simplify claims conflict but formula is %v", i, want)
			}
			continue
		}
		rest := Formula{NumVars: f.NumVars, Clauses: residual(s)}
		got := SolveBruteForce(rest).Status
		if got != want {
			t.Fatalf("case %d: simplified status %v != original %v", i, got, want)
		}
	}
}

func TestFreeVars(t *testing.T) {
	p := NewProblem(Formula{NumVars: 5, Clauses: []Clause{{1, -2}, {2, 3}}})
	if got := p.FreeVars(); got != 3 {
		t.Errorf("FreeVars = %d, want 3", got)
	}
}

func TestHeuristicsPickValidLiterals(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		f := Random3SAT(rng, 10, 30)
		p, _ := NewProblem(f).Simplify()
		if p.Consistent() || p.HasEmptyClause() {
			continue
		}
		for _, h := range []Heuristic{FirstUnassigned, MostFrequent, JeroslowWang, DLIS} {
			l := SelectLiteral(p, h)
			found := false
			for _, c := range residual(p) {
				for _, cl := range c {
					if cl.Var() == l.Var() {
						found = true
					}
				}
			}
			if !found {
				t.Errorf("heuristic %v picked literal %v not present in any clause", h, l)
			}
		}
	}
}

func TestHeuristicParse(t *testing.T) {
	for _, s := range []string{"first", "freq", "jw", "dlis"} {
		h, err := ParseHeuristic(s)
		if err != nil {
			t.Errorf("ParseHeuristic(%q): %v", s, err)
		}
		if h.String() != s {
			t.Errorf("round trip %q -> %q", s, h.String())
		}
	}
	if _, err := ParseHeuristic("nope"); err == nil {
		t.Error("expected parse error")
	}
}

func TestSolveKnownFormulas(t *testing.T) {
	cases := []struct {
		name string
		f    Formula
		want Status
	}{
		{"empty", Formula{NumVars: 0}, SAT},
		{"single", Formula{NumVars: 1, Clauses: []Clause{{1}}}, SAT},
		{"contradiction", Formula{NumVars: 1, Clauses: []Clause{{1}, {-1}}}, UNSAT},
		{"xor-chain", Formula{NumVars: 2, Clauses: []Clause{{1, 2}, {-1, -2}, {1, -2}, {-1, 2}}}, UNSAT},
		{"3sat-sat", Formula{NumVars: 3, Clauses: []Clause{{1, 2, 3}, {-1, -2, -3}, {1, -2, 3}}}, SAT},
	}
	for _, c := range cases {
		res := Solve(c.f, Options{})
		if res.Status != c.want {
			t.Errorf("%s: Solve = %v, want %v", c.name, res.Status, c.want)
		}
		if res.Status == SAT && !Verify(c.f, res.Assignment) {
			t.Errorf("%s: returned assignment does not verify", c.name)
		}
	}
}

func TestPropertyDPLLMatchesBruteForce(t *testing.T) {
	f := func(seed int64, clausesRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		numClauses := 10 + int(clausesRaw%35)
		formula := Random3SAT(rng, 8, numClauses)
		want := SolveBruteForce(formula).Status
		for _, h := range []Heuristic{FirstUnassigned, MostFrequent, JeroslowWang, DLIS} {
			res := Solve(formula, Options{Heuristic: h})
			if res.Status != want {
				return false
			}
			if res.Status == SAT && !Verify(formula, res.Assignment) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSolveMaxCallsGivesUnknown(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := Random3SAT(rng, 20, 91)
	res := Solve(f, Options{MaxCalls: 1})
	if res.Status == SAT || res.Status == UNSAT {
		// With a single call some trivial formulas could still resolve;
		// this particular seed should not.
		t.Errorf("expected Unknown with MaxCalls=1, got %v", res.Status)
	}
}

func TestGeneratorClauseShape(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := Random3SAT(rng, 20, 91)
	if len(f.Clauses) != 91 || f.NumVars != 20 {
		t.Fatalf("shape: %d vars %d clauses", f.NumVars, len(f.Clauses))
	}
	for i, c := range f.Clauses {
		if len(c) != 3 {
			t.Fatalf("clause %d has %d literals", i, len(c))
		}
		vars := map[int]bool{}
		for _, l := range c {
			if vars[l.Var()] {
				t.Fatalf("clause %d repeats variable %d (duplicate or tautology)", i, l.Var())
			}
			vars[l.Var()] = true
		}
	}
}

func TestPropertyGeneratorConstraints(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		formula := Random3SAT(rng, 12, 40)
		if err := formula.Validate(); err != nil {
			return false
		}
		for _, c := range formula.Clauses {
			if len(c) != 3 {
				return false
			}
			seen := map[int]bool{}
			for _, l := range c {
				if seen[l.Var()] {
					return false
				}
				seen[l.Var()] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a := Random3SAT(rand.New(rand.NewSource(77)), 20, 91)
	b := Random3SAT(rand.New(rand.NewSource(77)), 20, 91)
	for i := range a.Clauses {
		for j := range a.Clauses[i] {
			if a.Clauses[i][j] != b.Clauses[i][j] {
				t.Fatal("generator not deterministic per seed")
			}
		}
	}
}

func TestGenerateSuiteAllSatisfiable(t *testing.T) {
	suite, err := GenerateSuite(UF20Params(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(suite) != 20 {
		t.Fatalf("suite size %d, want 20", len(suite))
	}
	for i, f := range suite {
		if f.NumVars != 20 || len(f.Clauses) != 91 {
			t.Errorf("instance %d has wrong shape", i)
		}
		res := Solve(f, Options{Heuristic: JeroslowWang})
		if res.Status != SAT {
			t.Errorf("instance %d not satisfiable", i)
		}
	}
}

func TestGenerateSuiteErrors(t *testing.T) {
	if _, err := GenerateSuite(SuiteParams{Count: 0}); err == nil {
		t.Error("expected error for zero count")
	}
}

func TestDIMACSRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	f := Random3SAT(rng, 20, 91)
	var buf bytes.Buffer
	if err := WriteDIMACS(&buf, f); err != nil {
		t.Fatal(err)
	}
	g, err := ParseDIMACS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVars != f.NumVars || len(g.Clauses) != len(f.Clauses) {
		t.Fatalf("round trip shape mismatch")
	}
	for i := range f.Clauses {
		for j := range f.Clauses[i] {
			if f.Clauses[i][j] != g.Clauses[i][j] {
				t.Fatalf("clause %d literal %d mismatch", i, j)
			}
		}
	}
}

func TestDIMACSParseVariants(t *testing.T) {
	src := `c a comment
p cnf 3 2
1 -2 0
2 3 0
% SATLIB end-of-file marker
0
`
	f, err := ParseDIMACS(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if f.NumVars != 3 || len(f.Clauses) != 2 {
		t.Fatalf("parsed %d vars %d clauses", f.NumVars, len(f.Clauses))
	}
	// Multi-line clause and missing trailing zero.
	src2 := "p cnf 4 2\n1 2\n3 0\n-4 1 0"
	f2, err := ParseDIMACS(strings.NewReader(src2))
	if err != nil {
		t.Fatal(err)
	}
	if len(f2.Clauses) != 2 || len(f2.Clauses[0]) != 3 {
		t.Fatalf("multi-line clause parsed wrong: %v", f2.Clauses)
	}
}

func TestDIMACSParseErrors(t *testing.T) {
	cases := []string{
		"",                               // no problem line
		"1 2 0",                          // clause before problem line
		"p cnf x 2\n1 0",                 // bad var count
		"p cnf 2 x\n1 0",                 // bad clause count
		"p dnf 2 2\n1 0",                 // wrong format token
		"p cnf 2 1\n1 zz 0",              // bad literal
		"p cnf 2 1\n3 0",                 // out of range literal
		"p cnf 2 2\n1 0",                 // clause count mismatch
		"p cnf 2 1\n1 0\np cnf 2 1\n1 0", // duplicate problem line
	}
	for _, src := range cases {
		if _, err := ParseDIMACS(strings.NewReader(src)); err == nil {
			t.Errorf("ParseDIMACS(%q): expected error", src)
		}
	}
}

func TestStatusString(t *testing.T) {
	if SAT.String() != "SAT" || UNSAT.String() != "UNSAT" || Unknown.String() != "UNKNOWN" {
		t.Error("status names wrong")
	}
}

func TestCloneIndependence(t *testing.T) {
	f := Formula{NumVars: 2, Clauses: []Clause{{1, 2}}}
	g := f.Clone()
	g.Clauses[0][0] = -1
	if f.Clauses[0][0] != 1 {
		t.Error("Formula.Clone aliases clause storage")
	}
	p := NewProblem(f)
	f.Clauses[0][0] = -2
	q := p.Clone()
	q.assignInPlace(NewLit(1, true))
	if pc := residual(p); len(pc) != 1 || pc[0][0] != 1 || p.Assign.Value(1) != 0 {
		t.Error("NewProblem or Problem.Clone aliases storage")
	}
}

func TestOutcomeIsSAT(t *testing.T) {
	if !IsSAT(Outcome{Status: SAT}) {
		t.Error("SAT outcome rejected")
	}
	if IsSAT(Outcome{Status: UNSAT}) || IsSAT("nonsense") || IsSAT(nil) {
		t.Error("non-SAT accepted")
	}
}
