// Package sat provides the Boolean satisfiability machinery used by the
// paper's evaluation (Section V): CNF formulas, DIMACS encoding, a
// Davis-Putnam-Logemann-Loveland (DPLL) solver with unit propagation and
// pure-literal elimination, a uniform-random 3-SAT generator matching the
// SATLIB uf20-91 benchmark distribution, and the distributed layer-5 task
// of the paper's Listing 4.
package sat

import (
	"fmt"
	"strconv"
)

// Lit is a literal: +v for variable v, -v for its negation. Variables are
// numbered from 1, as in DIMACS.
type Lit int32

// NewLit builds a literal from a variable number and polarity.
func NewLit(v int, positive bool) Lit {
	if positive {
		return Lit(v)
	}
	return Lit(-v)
}

// Var returns the literal's variable number.
func (l Lit) Var() int {
	if l < 0 {
		return int(-l)
	}
	return int(l)
}

// Positive reports whether the literal is unnegated.
func (l Lit) Positive() bool { return l > 0 }

// Negate returns the complementary literal.
func (l Lit) Negate() Lit { return -l }

// String renders the literal in DIMACS style.
func (l Lit) String() string { return strconv.Itoa(int(l)) }

// Clause is a disjunction of literals.
type Clause []Lit

// Clone returns an independent copy of the clause.
func (c Clause) Clone() Clause { return append(Clause(nil), c...) }

// Formula is a CNF formula: a conjunction of clauses over NumVars variables.
type Formula struct {
	NumVars int
	Clauses []Clause
}

// Clone returns a deep copy of the formula.
func (f Formula) Clone() Formula {
	out := Formula{NumVars: f.NumVars, Clauses: make([]Clause, len(f.Clauses))}
	for i, c := range f.Clauses {
		out.Clauses[i] = c.Clone()
	}
	return out
}

// Validate checks structural sanity: literals are non-zero and reference
// variables within [1, NumVars].
func (f Formula) Validate() error {
	if f.NumVars < 0 {
		return fmt.Errorf("sat: negative NumVars %d", f.NumVars)
	}
	for i, c := range f.Clauses {
		for _, l := range c {
			if l == 0 {
				return fmt.Errorf("sat: clause %d contains zero literal", i)
			}
			// Compared in 64 bits: negating the most negative Lit overflows.
			if v := max(int64(l), -int64(l)); v > int64(f.NumVars) {
				return fmt.Errorf("sat: clause %d references variable %d > NumVars %d", i, v, f.NumVars)
			}
		}
	}
	return nil
}

// Assignment maps variables to truth values: index v holds +1 (true),
// -1 (false) or 0 (unassigned). Index 0 is unused.
type Assignment []int8

// NewAssignment returns an all-unassigned assignment for numVars variables.
func NewAssignment(numVars int) Assignment { return make(Assignment, numVars+1) }

// Clone returns an independent copy.
func (a Assignment) Clone() Assignment { return append(Assignment(nil), a...) }

// Value returns the assignment of a variable: +1, -1 or 0.
func (a Assignment) Value(v int) int8 { return a[v] }

// Set makes the literal true.
func (a Assignment) Set(l Lit) {
	if l.Positive() {
		a[l.Var()] = 1
	} else {
		a[l.Var()] = -1
	}
}

// Satisfies reports whether the literal evaluates to true under the
// assignment (unassigned variables evaluate to false-ish: not satisfied).
func (a Assignment) Satisfies(l Lit) bool {
	if l.Positive() {
		return a[l.Var()] == 1
	}
	return a[l.Var()] == -1
}

// Falsifies reports whether the literal evaluates to false under the
// assignment (its variable is assigned the opposite polarity).
func (a Assignment) Falsifies(l Lit) bool {
	if l.Positive() {
		return a[l.Var()] == -1
	}
	return a[l.Var()] == 1
}

// Assigned counts assigned variables.
func (a Assignment) Assigned() int {
	n := 0
	for _, v := range a[1:] {
		if v != 0 {
			n++
		}
	}
	return n
}

// Verify reports whether the assignment satisfies the formula, treating
// unassigned variables as false.
func Verify(f Formula, a Assignment) bool {
	if len(a) < f.NumVars+1 {
		return false
	}
	for _, c := range f.Clauses {
		ok := false
		for _, l := range c {
			val := a[l.Var()]
			if val == 0 {
				val = -1 // unassigned defaults to false
			}
			if (l.Positive() && val == 1) || (!l.Positive() && val == -1) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// Status is a solver verdict.
type Status int

const (
	// Unknown means the solver could not decide (e.g. budget exhausted).
	Unknown Status = iota
	// SAT means a satisfying assignment was found.
	SAT
	// UNSAT means the formula has no satisfying assignment.
	UNSAT
)

func (s Status) String() string {
	switch s {
	case SAT:
		return "SAT"
	case UNSAT:
		return "UNSAT"
	default:
		return "UNKNOWN"
	}
}
