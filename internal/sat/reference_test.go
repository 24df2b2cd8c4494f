package sat

// This file is the test-only oracle for the arena-backed Problem: the
// clause-copying representation the package used before, moved here
// verbatim (type and function names prefixed with ref). Every sub-problem
// owns deep copies of its residual clauses with falsified literals
// physically removed, so "what does the clause list look like now" needs no
// interpretation. TestProblemMatchesReference, FuzzProblemEquivalence and
// TestTaskMatchesReferenceOnLadder compare the production type against it.

import (
	"math"

	"hypersolve/internal/recursion"
)

// refProblem is a partially solved CNF instance: the not-yet-satisfied clauses
// (with falsified literals removed) plus the partial assignment accumulated
// so far. It is the self-contained sub-problem payload that travels between
// nodes in the distributed solver, and the working state of the sequential
// one.
type refProblem struct {
	NumVars int
	Clauses []Clause
	Assign  Assignment
}

// newRefProblem wraps a formula into an unassigned problem, copying clauses.
func newRefProblem(f Formula) *refProblem {
	p := &refProblem{NumVars: f.NumVars, Assign: NewAssignment(f.NumVars)}
	p.Clauses = make([]Clause, len(f.Clauses))
	for i, c := range f.Clauses {
		p.Clauses[i] = append(Clause(nil), c...)
	}
	return p
}

// Clone returns an independent deep copy.
func (p *refProblem) Clone() *refProblem {
	out := &refProblem{NumVars: p.NumVars, Assign: p.Assign.Clone()}
	out.Clauses = make([]Clause, len(p.Clauses))
	for i, c := range p.Clauses {
		out.Clauses[i] = append(Clause(nil), c...)
	}
	return out
}

// Consistent reports whether every clause has been satisfied (the paper's
// consistent(problem) test): no clauses remain.
func (p *refProblem) Consistent() bool { return len(p.Clauses) == 0 }

// HasEmptyClause reports whether some clause has had all its literals
// falsified, i.e. the partial assignment already contradicts the formula.
func (p *refProblem) HasEmptyClause() bool {
	for _, c := range p.Clauses {
		if len(c) == 0 {
			return true
		}
	}
	return false
}

// WithAssignment returns a new problem with the literal made true: satisfied
// clauses are dropped and falsified literals removed from the rest. The
// receiver is not modified.
func (p *refProblem) WithAssignment(l Lit) *refProblem {
	out := &refProblem{NumVars: p.NumVars, Assign: p.Assign.Clone()}
	out.Assign.Set(l)
	out.Clauses = make([]Clause, 0, len(p.Clauses))
	neg := l.Negate()
	for _, c := range p.Clauses {
		satisfied := false
		for _, cl := range c {
			if cl == l {
				satisfied = true
				break
			}
		}
		if satisfied {
			continue
		}
		nc := make(Clause, 0, len(c))
		for _, cl := range c {
			if cl != neg {
				nc = append(nc, cl)
			}
		}
		out.Clauses = append(out.Clauses, nc)
	}
	return out
}

// assignInPlace applies a literal to the problem destructively; used by
// Simplify which already owns its copy.
func (p *refProblem) assignInPlace(l Lit) {
	p.Assign.Set(l)
	neg := l.Negate()
	kept := p.Clauses[:0]
	for _, c := range p.Clauses {
		satisfied := false
		for _, cl := range c {
			if cl == l {
				satisfied = true
				break
			}
		}
		if satisfied {
			continue
		}
		nc := c[:0]
		for _, cl := range c {
			if cl != neg {
				nc = append(nc, cl)
			}
		}
		kept = append(kept, nc)
	}
	p.Clauses = kept
}

// Simplify applies unit propagation and pure-literal elimination to a copy
// of the problem until fixpoint. It stops early when an empty clause
// appears. (Sequential solving default; the distributed task defaults to
// the paper-faithful OnePass via SimplifyWith.)
func (p *refProblem) Simplify() (*refProblem, SimplifyStats) {
	return p.SimplifyWith(Fixpoint)
}

// SimplifyWith applies the selected simplification mode to a copy of the
// problem. Both modes are satisfiability-preserving: unit propagation is
// forced, and a snapshot-pure literal stays pure after other assignments
// only remove occurrences.
func (p *refProblem) SimplifyWith(mode SimplifyMode) (*refProblem, SimplifyStats) {
	out := p.Clone()
	var stats SimplifyStats
	if mode == Fixpoint {
		for {
			if out.HasEmptyClause() {
				return out, stats
			}
			if l, ok := out.findUnit(); ok {
				out.assignInPlace(l)
				stats.UnitPropagations++
				continue
			}
			if l, ok := out.findPure(); ok {
				out.assignInPlace(l)
				stats.PureAssignments++
				continue
			}
			return out, stats
		}
	}
	// OnePass: single forward scan for unit clauses (propagations may
	// expose further units only at later positions)...
	for i := 0; i < len(out.Clauses); {
		if out.HasEmptyClause() {
			return out, stats
		}
		if len(out.Clauses[i]) == 1 {
			out.assignInPlace(out.Clauses[i][0])
			stats.UnitPropagations++
			// assignInPlace compacts the clause list; re-examine index i.
			continue
		}
		i++
	}
	if out.HasEmptyClause() {
		return out, stats
	}
	// ...then a single pure-literal scan over a polarity snapshot.
	const (
		seenPos = 1
		seenNeg = 2
	)
	snapshot := make([]uint8, p.NumVars+1)
	for _, c := range out.Clauses {
		for _, l := range c {
			if l.Positive() {
				snapshot[l.Var()] |= seenPos
			} else {
				snapshot[l.Var()] |= seenNeg
			}
		}
	}
	for v := 1; v <= p.NumVars; v++ {
		switch snapshot[v] {
		case seenPos:
			out.assignInPlace(NewLit(v, true))
			stats.PureAssignments++
		case seenNeg:
			out.assignInPlace(NewLit(v, false))
			stats.PureAssignments++
		}
	}
	return out, stats
}

func (p *refProblem) findUnit() (Lit, bool) {
	for _, c := range p.Clauses {
		if len(c) == 1 {
			return c[0], true
		}
	}
	return 0, false
}

func (p *refProblem) findPure() (Lit, bool) {
	const (
		seenPos = 1
		seenNeg = 2
	)
	seen := make([]uint8, p.NumVars+1)
	for _, c := range p.Clauses {
		for _, l := range c {
			if l.Positive() {
				seen[l.Var()] |= seenPos
			} else {
				seen[l.Var()] |= seenNeg
			}
		}
	}
	for v := 1; v <= p.NumVars; v++ {
		switch seen[v] {
		case seenPos:
			return NewLit(v, true), true
		case seenNeg:
			return NewLit(v, false), true
		}
	}
	return 0, false
}

// FreeVars counts variables that appear in remaining clauses.
func (p *refProblem) FreeVars() int {
	seen := make([]bool, p.NumVars+1)
	n := 0
	for _, c := range p.Clauses {
		for _, l := range c {
			if !seen[l.Var()] {
				seen[l.Var()] = true
				n++
			}
		}
	}
	return n
}

// refDPLL is the recursive engine matching the paper's Listing 4, explored
// depth-first (true branch first).
func refDPLL(p *refProblem, opts Options, res *Result) Status {
	res.Calls++
	if opts.MaxCalls > 0 && res.Calls > opts.MaxCalls {
		return Unknown
	}
	simplified, stats := p.SimplifyWith(opts.Simplify)
	res.UnitProps += int64(stats.UnitPropagations)
	res.PureAssigns += int64(stats.PureAssignments)
	if simplified.HasEmptyClause() {
		return UNSAT
	}
	if simplified.Consistent() {
		res.Assignment = simplified.Assign.Clone()
		return SAT
	}
	lit := refSelectLiteral(simplified, opts.Heuristic)
	res.Decisions++
	if s := refDPLL(simplified.WithAssignment(lit), opts, res); s != UNSAT {
		return s
	}
	return refDPLL(simplified.WithAssignment(lit.Negate()), opts, res)
}

// refSelectLiteral returns the branching literal for a problem that is neither
// consistent nor contradicted. It panics if no literal exists (callers must
// check Consistent / HasEmptyClause first).
func refSelectLiteral(p *refProblem, h Heuristic) Lit {
	switch h {
	case MostFrequent:
		return refSelectByCount(p, false)
	case DLIS:
		return refSelectByCount(p, true)
	case JeroslowWang:
		return refSelectJW(p)
	default:
		for _, c := range p.Clauses {
			if len(c) > 0 {
				return c[0]
			}
		}
	}
	panic("sat: refSelectLiteral on a problem with no literals")
}

// refSelectByCount picks the most frequent variable (polarity-insensitive) or,
// for DLIS, the single most frequent literal.
func refSelectByCount(p *refProblem, perLiteral bool) Lit {
	pos := make([]int, p.NumVars+1)
	neg := make([]int, p.NumVars+1)
	for _, c := range p.Clauses {
		for _, l := range c {
			if l.Positive() {
				pos[l.Var()]++
			} else {
				neg[l.Var()]++
			}
		}
	}
	best, bestScore := Lit(0), -1
	for v := 1; v <= p.NumVars; v++ {
		if perLiteral {
			if pos[v] > bestScore {
				best, bestScore = NewLit(v, true), pos[v]
			}
			if neg[v] > bestScore {
				best, bestScore = NewLit(v, false), neg[v]
			}
		} else if score := pos[v] + neg[v]; score > bestScore && score > 0 {
			// Branch on the majority polarity first.
			best, bestScore = NewLit(v, pos[v] >= neg[v]), score
		}
	}
	if best == 0 {
		panic("sat: refSelectByCount on a problem with no literals")
	}
	return best
}

// refSelectJW implements the (one-sided) Jeroslow-Wang rule.
func refSelectJW(p *refProblem) Lit {
	score := make(map[Lit]float64, p.NumVars*2)
	for _, c := range p.Clauses {
		w := math.Pow(2, -float64(len(c)))
		for _, l := range c {
			score[l] += w
		}
	}
	best, bestScore := Lit(0), -1.0
	// Iterate variables in order for determinism (map order is random).
	for v := 1; v <= p.NumVars; v++ {
		for _, l := range []Lit{NewLit(v, true), NewLit(v, false)} {
			if s, ok := score[l]; ok && s > bestScore {
				best, bestScore = l, s
			}
		}
	}
	if best == 0 {
		panic("sat: refSelectJW on a problem with no literals")
	}
	return best
}

// refSolve is Solve over the reference representation.
func refSolve(f Formula, opts Options) Result {
	res := Result{}
	res.Status = refDPLL(newRefProblem(f), opts, &res)
	return res
}

// refTask is TaskWithMode over the reference representation; the root
// argument is a *refProblem.
func refTask(h Heuristic, mode SimplifyMode) recursion.Task {
	return func(f *recursion.Frame, arg recursion.Value) recursion.Value {
		p := arg.(*refProblem)
		simplified, _ := p.SimplifyWith(mode)
		if simplified.HasEmptyClause() {
			return Outcome{Status: UNSAT}
		}
		if simplified.Consistent() {
			return Outcome{Status: SAT, Assignment: simplified.Assign.Clone()}
		}
		lit := refSelectLiteral(simplified, h)
		sub1 := simplified.WithAssignment(lit)
		sub2 := simplified.WithAssignment(lit.Negate())
		v, found := f.ChooseHinted(IsSAT,
			recursion.HintedCall{Arg: sub1, Hint: float64(len(sub1.Clauses))},
			recursion.HintedCall{Arg: sub2, Hint: float64(len(sub2.Clauses))},
		)
		if found {
			return v
		}
		return Outcome{Status: UNSAT}
	}
}
