package sat

import "math/bits"

// arena is the flattened clause store of one formula: every clause's
// literals back to back, in the formula's clause and literal order, and the
// occurrence index over them. It is built once by NewProblem, shared by every
// Problem derived from it — on every node, and across concurrently running
// machines — and never written again: no lazy index may be added here.
type arena struct {
	lits []Lit
	offs []int32 // clause c is lits[offs[c]:offs[c+1]]
	// occ lists, for each literal, the ids of the clauses it occurs in,
	// ascending and once per occurrence (a duplicated literal lists its
	// clause twice): literal l's list is occ[occOffs[n+l]:occOffs[n+l+1]]
	// for a formula over n variables.
	occ     []int32
	occOffs []int32
	numVars int
	// idBits is the width of the clause-id field of a live entry; the count
	// field above it holds at most maxCount (see layout).
	idBits   uint
	maxCount int
}

func (a *arena) clause(c int32) []Lit { return a.lits[a.offs[c]:a.offs[c+1]] }

// occurrences returns the ids of the clauses l occurs in, ascending.
func (a *arena) occurrences(l Lit) []int32 {
	i := a.numVars + int(l)
	return a.occ[a.occOffs[i]:a.occOffs[i+1]]
}

// countBits is the widest count field of a live entry. Counts below
// 2^countBits-1 are exact; the top value means "at least that many": such a
// clause is recounted from the arena. Fixing the width keeps that path
// reachable by an ordinary long clause instead of only by a formula too big
// to test.
const countBits = 8

// layout splits a live entry for a formula of numClauses clauses: ids take
// the low idBits (at least 32-countBits, more when the formula needs them),
// the count takes the rest and saturates at maxCount >= 1.
func layout(numClauses int) (idBits uint, maxCount int) {
	idBits = max(32-countBits, uint(bits.Len32(uint32(max(numClauses-1, 0)))))
	return idBits, 1<<(32-idBits) - 1
}

// entry packs clause c with k of its literals unassigned into a live entry.
func (a *arena) entry(c int32, k int) int32 {
	return int32(uint32(c) | uint32(min(k, a.maxCount))<<a.idBits)
}

// id returns the clause id of a live entry.
func (a *arena) id(e int32) int32 { return int32(uint32(e) & (1<<a.idBits - 1)) }

// count returns the remaining-literal field of a live entry: exact below
// maxCount, a lower bound at it.
func (a *arena) count(e int32) int { return int(uint32(e) >> a.idBits) }

// Problem is a partially solved CNF instance, held as a view onto the shared
// clause arena: the partial assignment accumulated so far plus one entry per
// clause it has not yet satisfied, in formula order. An entry packs the
// clause's id with the number of its literals still unassigned (duplicates
// counted as occurrences). A live clause reads as its original literals
// minus those whose variable is assigned (every assignment drops the clauses
// it satisfies, so an assigned variable's surviving occurrences are exactly
// the falsified ones). It is the sub-problem payload that travels between
// nodes in the distributed solver, and the working state of the sequential
// one.
//
// Assign must only be written through the Problem's own methods: the live
// entries are only meaningful together with it.
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

// NewProblem wraps a formula into an unassigned problem, copying clauses and
// indexing their literals.
func NewProblem(f Formula) *Problem {
	n := 0
	for _, c := range f.Clauses {
		n += len(c)
	}
	a := &arena{
		lits:    make([]Lit, 0, n),
		offs:    make([]int32, 1, len(f.Clauses)+1),
		occ:     make([]int32, n),
		occOffs: make([]int32, 2*f.NumVars+2),
		numVars: f.NumVars,
	}
	a.idBits, a.maxCount = layout(len(f.Clauses))
	p := &Problem{
		NumVars: f.NumVars,
		Assign:  NewAssignment(f.NumVars),
		clauses: a,
		live:    make([]int32, len(f.Clauses)),
	}
	for i, c := range f.Clauses {
		a.lits = append(a.lits, c...)
		a.offs = append(a.offs, int32(len(a.lits)))
		p.live[i] = a.entry(int32(i), len(c))
		if len(c) == 0 {
			p.empty = true
		}
		for _, l := range c {
			a.occOffs[f.NumVars+int(l)+1]++
		}
	}
	// Counts to starts, then each list filled in clause order while its
	// start advances to its end, which is the next list's start.
	for i := 1; i < len(a.occOffs); i++ {
		a.occOffs[i] += a.occOffs[i-1]
	}
	for i, c := range f.Clauses {
		for _, l := range c {
			j := f.NumVars + int(l)
			a.occ[a.occOffs[j]] = int32(i)
			a.occOffs[j]++
		}
	}
	copy(a.occOffs[1:], a.occOffs)
	a.occOffs[0] = 0
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
// owns Assign and live. Only the clauses that mention l's variable are
// touched, found through the occurrence index.
func (p *Problem) assignInPlace(l Lit) {
	assigned := p.Assign[l.Var()] != 0
	p.Assign.Set(l)
	if assigned {
		// No live clause mentions an assigned variable: only the value moves.
		return
	}
	// Dropping first takes a tautology out before its falsified half could
	// be counted against it.
	p.drop(p.clauses.occurrences(l))
	p.falsify(p.clauses.occurrences(l.Negate()))
}

// seek returns the first index at or after i of a live entry whose clause id
// is at least c. Ids ascend strictly, so that index is at most i+c-id(i).
// Which half of the window holds it is unpredictable, so the halving step
// is arithmetic rather than a branch: ids and c lie in [0, 2^31), their
// difference cannot overflow, and its sign, spread over a word, selects half
// or nothing.
func (p *Problem) seek(i int, c int32) int {
	mask := uint32(1)<<p.clauses.idBits - 1
	live := p.live[i:]
	if len(live) == 0 {
		return i
	}
	d := c - int32(uint32(live[0])&mask)
	if d <= 0 {
		return i
	}
	base, n := 0, min(len(live), int(d))
	for n > 1 {
		half := n >> 1
		base += half & int((int32(uint32(live[base+half])&mask)-c)>>31)
		n -= half
	}
	if int32(uint32(live[base])&mask) < c {
		base++
	}
	return i + base
}

// drop removes the live clauses listed in ids (ascending), keeping the rest
// in order.
func (p *Problem) drop(ids []int32) {
	a := p.clauses
	w, r, i := 0, 0, 0 // write end, first unmoved entry, search start
	for _, c := range ids {
		if i = p.seek(i, c); i == len(p.live) {
			break
		}
		if a.id(p.live[i]) != c {
			continue
		}
		if w != r {
			copy(p.live[w:], p.live[r:i])
		}
		w += i - r
		i++
		r = i
	}
	if w != r {
		copy(p.live[w:], p.live[r:])
	}
	p.live = p.live[:w+len(p.live)-r]
}

// falsify lowers the count of every live clause listed in ids (ascending,
// once per occurrence of the literal just falsified), after the assignment
// has been recorded.
func (p *Problem) falsify(ids []int32) {
	a := p.clauses
	i := 0
	for j := 0; j < len(ids); j++ {
		c, m := ids[j], 1
		for j+1 < len(ids) && ids[j+1] == c {
			j++
			m++
		}
		if i = p.seek(i, c); i == len(p.live) {
			return
		}
		e := p.live[i]
		if a.id(e) != c {
			continue
		}
		k := a.count(e)
		if k == a.maxCount {
			k = p.remaining(a.clause(c))
		} else {
			k -= m
		}
		p.live[i] = a.entry(c, k)
		if k == 0 {
			p.empty = true
		}
	}
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

// free returns the number of unassigned literals of live entry e.
func (p *Problem) free(e int32) int {
	if k := p.clauses.count(e); k < p.clauses.maxCount {
		return k
	}
	return p.remaining(p.clauses.clause(p.clauses.id(e)))
}

// unit returns the only remaining literal of live entry e; ok is false when
// the clause reads as empty or has more than one literal left. A count of 1
// is exact unless the count field is one bit wide, where it means "at least
// one": the scan decides either way.
func (p *Problem) unit(e int32) (unit Lit, ok bool) {
	if p.clauses.count(e) != 1 {
		return 0, false
	}
	for _, cl := range p.clauses.clause(p.clauses.id(e)) {
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
//
// Both polarities and assignment are read without a branch, since neither is
// predictable: a literal's sign bit selects seenPos (1) or seenNeg (2), and
// an assigned variable turns the mark off. A clause with every literal
// unassigned skips the assignment (a saturated count equals the length only
// then too).
func (p *Problem) polarities(seen []uint8) {
	a := p.clauses
	for _, e := range p.live {
		lits := a.clause(a.id(e))
		if a.count(e) == len(lits) {
			for _, cl := range lits {
				x := int32(cl)
				sign := x >> 31
				seen[(x^sign)-sign] |= 1 << (uint32(x) >> 31)
			}
			continue
		}
		for _, cl := range lits {
			x := int32(cl)
			sign := x >> 31
			v := (x ^ sign) - sign
			val := uint8(p.Assign[v])
			// val is 0, 1 or 255: free is 0xFF when it is 0, else 0.
			free := uint8(int8(val|-val)>>7) ^ 0xFF
			seen[v] |= 1 << (uint32(x) >> 31) & free
		}
	}
}

// SimplifyWith applies the selected simplification mode to a copy of the
// problem, stopping early when an empty clause appears: OnePass (the
// paper-faithful default of both the distributed task and the sequential
// solver, as Options' zero value) makes one round of unit propagation and
// pure-literal elimination; Fixpoint, the strongest pruning, repeats them
// until nothing changes. Both modes are satisfiability-preserving: unit
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
	// literal falsifies nothing, so setting one only drops the clauses it
	// occurs in and leaves every other count as it is.
	out.polarities(seen)
	for v := 1; v <= p.NumVars; v++ {
		var l Lit
		switch seen[v] {
		case seenPos:
			l = NewLit(v, true)
		case seenNeg:
			l = NewLit(v, false)
		default:
			continue
		}
		out.Assign.Set(l)
		out.drop(out.clauses.occurrences(l))
		stats.PureAssignments++
	}
	return out, stats
}

func (p *Problem) findUnit() (Lit, bool) {
	for _, e := range p.live {
		if l, ok := p.unit(e); ok {
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
