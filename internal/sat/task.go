package sat

import (
	"hypersolve/internal/recursion"
)

// Outcome is the value the distributed solver's frames exchange: a verdict
// plus, for SAT, the witness assignment.
type Outcome struct {
	Status     Status
	Assignment Assignment
}

// IsSAT is the validation predicate of the paper's Listing 4 (is_SAT): a
// choice resolves as soon as one branch reports SAT.
func IsSAT(v recursion.Value) bool {
	o, ok := v.(Outcome)
	return ok && o.Status == SAT
}

// Task returns the layer-5 recursive SAT solver of the paper's Listing 4
// with single-pass simplification (the paper-faithful default). See
// TaskWithMode for the simplification ablation.
func Task(h Heuristic) recursion.Task { return TaskWithMode(h, OnePass) }

// TaskWithMode returns the distributed DPLL task with an explicit
// simplification mode. Each invocation receives a *Problem, simplifies it
// with unit propagation and pure-literal elimination, and either answers
// directly or branches on a selected literal, evaluating both sub-problems
// concurrently on other nodes under non-deterministic choice: the first SAT
// result wins; if both branches return non-SAT the frame answers UNSAT.
//
// Sub-calls carry a cross-layer hint — the sub-problem's remaining clause
// count — which hint-aware mappers (mapping.NewWeighted) may exploit, and
// others ignore (paper Section III-B3).
func TaskWithMode(h Heuristic, mode SimplifyMode) recursion.Task {
	return func(f *recursion.Frame, arg recursion.Value) recursion.Value {
		p, ok := arg.(*Problem)
		if !ok {
			panic("sat: task argument is not *Problem")
		}
		simplified, _ := p.SimplifyWith(mode)
		if simplified.HasEmptyClause() {
			return Outcome{Status: UNSAT}
		}
		if simplified.Consistent() {
			return Outcome{Status: SAT, Assignment: simplified.Assign.Clone()}
		}
		lit := SelectLiteral(simplified, h)
		sub1 := simplified.WithAssignment(lit)
		sub2 := simplified.WithAssignment(lit.Negate())
		v, found := f.ChooseHinted(IsSAT,
			recursion.HintedCall{Arg: sub1, Hint: float64(len(sub1.live))},
			recursion.HintedCall{Arg: sub2, Hint: float64(len(sub2.live))},
		)
		if found {
			return v
		}
		return Outcome{Status: UNSAT}
	}
}
