package sat

import (
	"math/rand"
	"testing"
)

func benchFormula(vars, clauses int) Formula {
	return Random3SAT(rand.New(rand.NewSource(99)), vars, clauses)
}

// BenchmarkSolve measures the sequential DPLL engine per heuristic.
func BenchmarkSolve(b *testing.B) {
	f := benchFormula(50, 218)
	for _, h := range []Heuristic{FirstUnassigned, MostFrequent, JeroslowWang, DLIS} {
		b.Run(h.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Solve(f, Options{Heuristic: h})
			}
		})
	}
}

// BenchmarkSimplify measures both simplification modes on a fresh problem.
func BenchmarkSimplify(b *testing.B) {
	f := benchFormula(50, 218)
	for _, m := range []SimplifyMode{OnePass, Fixpoint} {
		b.Run(m.String(), func(b *testing.B) {
			b.ReportAllocs()
			p := NewProblem(f)
			for i := 0; i < b.N; i++ {
				p.SimplifyWith(m)
			}
		})
	}
}

// BenchmarkWithAssignment measures what a branch costs: a copy of the live
// entries, a search of them for each clause the variable occurs in, and three
// allocations (the Problem, its assignment, its live entries).
func BenchmarkWithAssignment(b *testing.B) {
	p := NewProblem(benchFormula(50, 218))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.WithAssignment(NewLit(1+i%50, i%2 == 0))
	}
}

// BenchmarkGenerate measures suite generation including the satisfiability
// filter.
func BenchmarkGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := GenerateSuite(SuiteParams{
			Count: 1, NumVars: 20, NumClauses: 91, Seed: int64(i), RequireSAT: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
