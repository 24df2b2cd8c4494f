package sat

import (
	"fmt"
	"math"
)

// Heuristic selects the branching literal of DPLL. The paper deliberately
// uses an "algorithm-independent heuristic" (Listing 4 line 12); these
// implementations cover the standard spectrum from naive to
// occurrence-weighted, and serve as the A3 ablation axis.
type Heuristic int

const (
	// FirstUnassigned picks the first literal of the first clause: the
	// barebone choice, producing the bushiest trees (and therefore the
	// most distributable work). Default for the paper reproduction.
	FirstUnassigned Heuristic = iota
	// MostFrequent picks the literal occurring most often.
	MostFrequent
	// JeroslowWang scores literals by sum over clauses of 2^-|clause|.
	JeroslowWang
	// DLIS (dynamic largest individual sum) picks the literal whose
	// polarity occurs most often among remaining clauses.
	DLIS
)

func (h Heuristic) String() string {
	switch h {
	case FirstUnassigned:
		return "first"
	case MostFrequent:
		return "freq"
	case JeroslowWang:
		return "jw"
	case DLIS:
		return "dlis"
	default:
		return fmt.Sprintf("heuristic(%d)", int(h))
	}
}

// ParseHeuristic resolves a heuristic spec string.
func ParseHeuristic(s string) (Heuristic, error) {
	switch s {
	case "first":
		return FirstUnassigned, nil
	case "freq":
		return MostFrequent, nil
	case "jw":
		return JeroslowWang, nil
	case "dlis":
		return DLIS, nil
	default:
		return 0, fmt.Errorf("sat: unknown heuristic %q (want first|freq|jw|dlis)", s)
	}
}

// SelectLiteral returns the branching literal for a problem that is neither
// consistent nor contradicted. It panics if no literal exists (callers must
// check Consistent / HasEmptyClause first).
func SelectLiteral(p *Problem, h Heuristic) Lit {
	switch h {
	case MostFrequent:
		return selectByCount(p, false)
	case DLIS:
		return selectByCount(p, true)
	case JeroslowWang:
		return selectJW(p)
	default:
		for _, e := range p.live {
			for _, l := range p.clauses.clause(p.clauses.id(e)) {
				if p.Assign[l.Var()] == 0 {
					return l
				}
			}
		}
	}
	panic("sat: SelectLiteral on a problem with no literals")
}

// selectByCount picks the most frequent variable (polarity-insensitive) or,
// for DLIS, the single most frequent literal.
func selectByCount(p *Problem, perLiteral bool) Lit {
	var buf [2 * (smallVars + 1)]int
	counts := scratch(buf[:], 2*(p.NumVars+1))
	pos, neg := counts[:p.NumVars+1], counts[p.NumVars+1:]
	for _, e := range p.live {
		for _, l := range p.clauses.clause(p.clauses.id(e)) {
			if p.Assign[l.Var()] != 0 {
				continue
			}
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
		panic("sat: selectByCount on a problem with no literals")
	}
	return best
}

// jwWeights[k] is the Jeroslow-Wang weight 2^-k of a clause with k literals
// left; longer clauses fall back to math.Pow.
var jwWeights = func() (w [16]float64) {
	for k := range w {
		w[k] = math.Pow(2, -float64(k))
	}
	return w
}()

// selectJW implements the (one-sided) Jeroslow-Wang rule. Weights are added
// clause by clause in list order, so a literal's score is the same float
// whatever holds the sums.
func selectJW(p *Problem) Lit {
	var scoreBuf [2 * (smallVars + 1)]float64
	var seenBuf [smallVars + 1]uint8
	scores, seen := scratch(scoreBuf[:], 2*(p.NumVars+1)), scratch(seenBuf[:], p.NumVars+1)
	pos, neg := scores[:p.NumVars+1], scores[p.NumVars+1:]
	for _, e := range p.live {
		lits := p.clauses.clause(p.clauses.id(e))
		k := p.free(e)
		var w float64
		if k < len(jwWeights) {
			w = jwWeights[k]
		} else {
			w = math.Pow(2, -float64(k))
		}
		for _, l := range lits {
			if p.Assign[l.Var()] != 0 {
				continue
			}
			if l.Positive() {
				pos[l.Var()] += w
				seen[l.Var()] |= seenPos
			} else {
				neg[l.Var()] += w
				seen[l.Var()] |= seenNeg
			}
		}
	}
	best, bestScore := Lit(0), -1.0
	for v := 1; v <= p.NumVars; v++ {
		if seen[v]&seenPos != 0 && pos[v] > bestScore {
			best, bestScore = NewLit(v, true), pos[v]
		}
		if seen[v]&seenNeg != 0 && neg[v] > bestScore {
			best, bestScore = NewLit(v, false), neg[v]
		}
	}
	if best == 0 {
		panic("sat: selectJW on a problem with no literals")
	}
	return best
}
