package sat

// Result is a solver verdict with the witness assignment (for SAT) and
// search statistics.
type Result struct {
	Status     Status
	Assignment Assignment // satisfying assignment when Status == SAT
	// Decisions counts branching points; Calls counts DPLL invocations;
	// UnitProps and PureAssigns count simplification steps. These mirror
	// the work the distributed solver spreads across the mesh.
	Decisions   int64
	Calls       int64
	UnitProps   int64
	PureAssigns int64
}

// Options configures the sequential solver.
type Options struct {
	Heuristic Heuristic
	// Simplify selects the simplification mode per call; the default
	// OnePass matches the distributed task, making sequential call counts
	// comparable to distributed frame counts. Use Fixpoint for the
	// strongest pruning.
	Simplify SimplifyMode
	// MaxCalls bounds the search; zero means unlimited. When exceeded the
	// result status is Unknown.
	MaxCalls int64
}

// Solve runs sequential DPLL over the formula — the single-machine baseline
// the distributed solver is validated against.
func Solve(f Formula, opts Options) Result {
	res := Result{}
	status := dpll(NewProblem(f), opts, &res)
	res.Status = status
	return res
}

// dpll is the recursive engine matching the paper's Listing 4, explored
// depth-first (true branch first).
func dpll(p *Problem, opts Options, res *Result) Status {
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
	lit := SelectLiteral(simplified, opts.Heuristic)
	res.Decisions++
	if s := dpll(simplified.WithAssignment(lit), opts, res); s != UNSAT {
		return s
	}
	return dpll(simplified.WithAssignment(lit.Negate()), opts, res)
}
