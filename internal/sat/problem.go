package sat

// arena is the flattened clause store of one formula: every clause's
// literals back to back, in the formula's clause and literal order. It is
// built once by NewProblem, shared by every Problem derived from it — on
// every node, and across concurrently running machines — and never written
// again: no lazy index may be added here.
type arena struct {
	lits []Lit
	offs []int32 // clause c is lits[offs[c]:offs[c+1]]
}

func (a *arena) clause(c int32) []Lit { return a.lits[a.offs[c]:a.offs[c+1]] }

// Problem is a partially solved CNF instance, held as a view onto the shared
// clause arena: the partial assignment accumulated so far plus the ids of
// the clauses it has not yet satisfied, in formula order. A live clause reads
// as its original literals minus those whose variable is assigned (every
// assignment drops the clauses it satisfies, so an assigned variable's
// surviving occurrences are exactly the falsified ones). It is the
// sub-problem payload that travels between nodes in the distributed solver,
// and the working state of the sequential one.
//
// Assign must only be written through the Problem's own methods: the
// clause-id list is only meaningful together with it.
type Problem struct {
	NumVars int
	Assign  Assignment

	clauses *arena
	live    []int32
	// empty is set once some live clause has had every literal falsified.
	// Such a clause can never be satisfied, so it never leaves live and the
	// flag never clears.
	empty bool
}

// NewProblem wraps a formula into an unassigned problem, copying clauses.
func NewProblem(f Formula) *Problem {
	n := 0
	for _, c := range f.Clauses {
		n += len(c)
	}
	a := &arena{lits: make([]Lit, 0, n), offs: make([]int32, 1, len(f.Clauses)+1)}
	p := &Problem{
		NumVars: f.NumVars,
		Assign:  NewAssignment(f.NumVars),
		clauses: a,
		live:    make([]int32, len(f.Clauses)),
	}
	for i, c := range f.Clauses {
		a.lits = append(a.lits, c...)
		a.offs = append(a.offs, int32(len(a.lits)))
		p.live[i] = int32(i)
		if len(c) == 0 {
			p.empty = true
		}
	}
	return p
}

// Clone returns an independent copy of the per-branch state (the arena is
// shared).
func (p *Problem) Clone() *Problem {
	out := *p
	out.Assign = p.Assign.Clone()
	out.live = append([]int32(nil), p.live...)
	return &out
}

// Consistent reports whether every clause has been satisfied (the paper's
// consistent(problem) test): no clauses remain.
func (p *Problem) Consistent() bool { return len(p.live) == 0 }

// HasEmptyClause reports whether some clause has had all its literals
// falsified, i.e. the partial assignment already contradicts the formula.
func (p *Problem) HasEmptyClause() bool { return p.empty }

// WithAssignment returns a new problem with the literal made true: satisfied
// clauses are dropped and falsified literals removed from the rest. The
// receiver is not modified.
func (p *Problem) WithAssignment(l Lit) *Problem {
	out := p.Clone()
	out.assignInPlace(l)
	return out
}

// assignInPlace applies a literal to the problem destructively; the caller
// owns Assign and live.
func (p *Problem) assignInPlace(l Lit) {
	assigned := p.Assign[l.Var()] != 0
	p.Assign.Set(l)
	if assigned {
		// No live clause mentions an assigned variable: only the value moves.
		return
	}
	neg := l.Negate()
	n := 0
clauses:
	for _, c := range p.live {
		lits := p.clauses.clause(c)
		falsified := false
		for _, cl := range lits {
			if cl == l {
				continue clauses
			}
			if cl == neg {
				falsified = true
			}
		}
		if falsified && !p.empty && p.remaining(lits) == 0 {
			p.empty = true
		}
		p.live[n] = c
		n++
	}
	p.live = p.live[:n]
}

// remaining counts the literals of a live clause that are still there.
func (p *Problem) remaining(lits []Lit) int {
	n := 0
	for _, cl := range lits {
		if p.Assign[cl.Var()] == 0 {
			n++
		}
	}
	return n
}

// unit returns the only remaining literal of clause c; ok is false when
// the clause reads as empty or has more than one literal left.
func (p *Problem) unit(c int32) (unit Lit, ok bool) {
	for _, cl := range p.clauses.clause(c) {
		if p.Assign[cl.Var()] == 0 {
			if ok {
				return 0, false
			}
			unit, ok = cl, true
		}
	}
	return unit, ok
}

// SimplifyStats reports what SimplifyWith did.
type SimplifyStats struct {
	UnitPropagations int
	PureAssignments  int
}

// SimplifyMode selects how aggressively SimplifyWith runs.
type SimplifyMode int

const (
	// OnePass performs a single scan of unit propagation followed by a
	// single snapshot-based scan of pure-literal assignment, matching the
	// literal reading of the paper's Listing 4 (lines 6-11: one `for`
	// loop over clauses, one over literals, per solver invocation). This
	// leaves more branching to the mesh — the behaviour the evaluation
	// measures.
	OnePass SimplifyMode = iota
	// Fixpoint repeats both rules until neither applies: stronger pruning,
	// smaller trees, less exposed parallelism. Used as an ablation.
	Fixpoint
)

func (m SimplifyMode) String() string {
	if m == Fixpoint {
		return "fixpoint"
	}
	return "onepass"
}

// Polarity bits of the pure-literal scans.
const (
	seenPos = 1
	seenNeg = 2
)

// smallVars sizes the per-variable scratch arrays that live on the stack;
// formulas with more variables allocate them.
const smallVars = 127

// scratch returns n zeroed elements: the front of buf (a caller's stack
// array) when they fit, a fresh slice otherwise.
func scratch[T any](buf []T, n int) []T {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]T, n)
}

// polarities records, per variable, which polarities occur among the
// remaining literals. seen must be zeroed and NumVars+1 long.
func (p *Problem) polarities(seen []uint8) {
	for _, c := range p.live {
		for _, cl := range p.clauses.clause(c) {
			if p.Assign[cl.Var()] != 0 {
				continue
			}
			if cl.Positive() {
				seen[cl.Var()] |= seenPos
			} else {
				seen[cl.Var()] |= seenNeg
			}
		}
	}
}

// SimplifyWith applies the selected simplification mode to a copy of the
// problem, stopping early when an empty clause appears: Fixpoint (the
// sequential solver's default) repeats unit propagation and pure-literal
// elimination until nothing changes; OnePass is the distributed task's
// paper-faithful default. Both modes are satisfiability-preserving: unit
// propagation is forced, and a snapshot-pure literal stays pure after other
// assignments only remove occurrences.
func (p *Problem) SimplifyWith(mode SimplifyMode) (*Problem, SimplifyStats) {
	out := p.Clone()
	var stats SimplifyStats
	var buf [smallVars + 1]uint8
	seen := scratch(buf[:], p.NumVars+1)
	if mode == Fixpoint {
		for !out.empty {
			if l, ok := out.findUnit(); ok {
				out.assignInPlace(l)
				stats.UnitPropagations++
				continue
			}
			clear(seen)
			out.polarities(seen)
			l, ok := firstPure(seen)
			if !ok {
				break
			}
			out.assignInPlace(l)
			stats.PureAssignments++
		}
		return out, stats
	}
	// OnePass: single forward scan for unit clauses (propagations may
	// expose further units only at later positions). assignInPlace compacts
	// the clause list and index i is then re-examined; since satisfied
	// clauses before i are dropped too, the scan skips that many survivors
	// after the unit clause. This is pinned behaviour — simulated statistics
	// depend on it (TestOnePassIndexSkip).
	for i := 0; i < len(out.live) && !out.empty; {
		if l, ok := out.unit(out.live[i]); ok {
			out.assignInPlace(l)
			stats.UnitPropagations++
			continue
		}
		i++
	}
	if out.empty {
		return out, stats
	}
	// ...then a single pure-literal scan over a polarity snapshot. A pure
	// literal falsifies nothing, so all of them are set first and the
	// clauses they satisfy are dropped in one compaction.
	out.polarities(seen)
	for v := 1; v <= p.NumVars; v++ {
		switch seen[v] {
		case seenPos:
			out.Assign[v] = 1
		case seenNeg:
			out.Assign[v] = -1
		default:
			continue
		}
		stats.PureAssignments++
	}
	if stats.PureAssignments == 0 {
		return out, stats
	}
	kept := out.live[:0]
clauses:
	for _, c := range out.live {
		for _, cl := range out.clauses.clause(c) {
			if s := seen[cl.Var()]; s == seenPos || s == seenNeg {
				continue clauses
			}
		}
		kept = append(kept, c)
	}
	out.live = kept
	return out, stats
}

func (p *Problem) findUnit() (Lit, bool) {
	for _, c := range p.live {
		if l, ok := p.unit(c); ok {
			return l, true
		}
	}
	return 0, false
}

// firstPure returns the lowest-numbered variable that occurs in exactly one
// polarity, as the literal of that polarity.
func firstPure(seen []uint8) (Lit, bool) {
	for v := 1; v < len(seen); v++ {
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
func (p *Problem) FreeVars() int {
	seen := make([]uint8, p.NumVars+1)
	p.polarities(seen)
	n := 0
	for _, s := range seen {
		if s != 0 {
			n++
		}
	}
	return n
}
