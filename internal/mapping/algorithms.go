package mapping

import (
	"fmt"
	"math/rand"
	"strings"

	"hypersolve/internal/sched"
)

// This file provides the mapping algorithms evaluated in the paper plus two
// extensions:
//
//   - RoundRobin   (paper, static): sub-problems go to adjacent cores in
//     circular order.
//   - LeastBusy    (paper, adaptive): sub-problems go to the neighbour with
//     the smallest piggybacked received-message count.
//   - Random       (extension, static): uniform random neighbour, the
//     classic randomized work-distribution baseline.
//   - Weighted     (extension, adaptive): least-busy scoring that adds the
//     hint weight of work optimistically assigned since the neighbour's
//     last activity update — the cross-layer optimization of the paper's
//     Section III-B3.

// NewRoundRobin returns the paper's static mapper: it cycles through the
// neighbour list in circular order, ignoring activity information. Every
// node starts its cycle at neighbour index 0, the naive reading of the
// paper's rule; see NewStaggeredRoundRobin for the de-phased variant.
func NewRoundRobin() Factory {
	return func(self sched.PID, nbrs []sched.PID, seed int64) Algorithm {
		return &roundRobin{name: "rr"}
	}
}

// NewStaggeredRoundRobin returns round-robin with each node's cycle offset
// by its PID, so nodes do not choose in lockstep. Without the stagger every
// node's first sub-problem goes to its lowest-numbered neighbour, which
// turns the low-index region into a hotspot on dense topologies — an
// implementation detail with measurable impact (ablation A7).
func NewStaggeredRoundRobin() Factory {
	return func(self sched.PID, nbrs []sched.PID, seed int64) Algorithm {
		rr := &roundRobin{name: "rr-stagger"}
		if len(nbrs) > 0 {
			rr.cursor = int(self) % len(nbrs)
		}
		return rr
	}
}

type roundRobin struct {
	name   string
	cursor int
}

func (r *roundRobin) Name() string { return r.name }

func (r *roundRobin) Choose(v View) int {
	idx := r.cursor % len(v.Neighbours)
	r.cursor = (r.cursor + 1) % len(v.Neighbours)
	return idx
}

// NewGlobalRoundRobin returns an *idealised* mapper that spreads work with
// one round-robin cursor shared by every node in the machine — perfect
// global coordination that no physical hyperspace computer could implement
// without global communication. It exists to model the paper's
// fully-connected baseline ("fully-connected machines under the same
// assumptions", Section V-A), where the interesting quantity is the
// machine's ideal behaviour, not a realisable mapping algorithm. On
// non-complete topologies it still only picks among the node's own
// neighbours (cursor modulo degree). The cursor is the machine's own count
// of mapped work (View.Mapped), so the mapper itself holds no state.
func NewGlobalRoundRobin() Factory {
	return func(self sched.PID, nbrs []sched.PID, seed int64) Algorithm {
		return globalRR{}
	}
}

type globalRR struct{}

func (globalRR) Name() string { return "ideal" }

func (globalRR) Choose(v View) int { return int(v.Mapped % int64(len(v.Neighbours))) }

// NewLeastBusy returns the paper's adaptive mapper: choose the neighbour
// with the smallest last-heard received-message count. The paper does not
// specify tie-breaking; this implementation rotates round-robin among the
// tied minima, so a cold-started node (all counts zero) degrades gracefully
// to round-robin instead of herding every sub-problem onto one neighbour.
// Once counts differentiate, work flows down the activity gradient — away
// from the busy region — which is the spatial-unfolding advantage the
// paper's Figure 5 visualises.
func NewLeastBusy() Factory {
	return func(self sched.PID, nbrs []sched.PID, seed int64) Algorithm {
		return &leastBusy{}
	}
}

type leastBusy struct {
	cursor int
}

func (*leastBusy) Name() string { return "lbn" }

func (lb *leastBusy) Choose(v View) int {
	min := v.Loads[0]
	for _, l := range v.Loads[1:] {
		if l < min {
			min = l
		}
	}
	// Pick the first minimum at or after the cursor, circularly.
	n := len(v.Loads)
	for i := 0; i < n; i++ {
		idx := (lb.cursor + i) % n
		if v.Loads[idx] == min {
			lb.cursor = (idx + 1) % n
			return idx
		}
	}
	return 0 // unreachable: min always exists
}

// NewRandom returns a mapper choosing a uniformly random neighbour from a
// per-node deterministic stream. The stream's source is made from the seed
// on the node's first Choose: seeding costs ~5 KB, and most nodes of a
// small job never map work.
func NewRandom() Factory {
	return func(self sched.PID, nbrs []sched.PID, seed int64) Algorithm {
		return &randomMapper{seed: seed}
	}
}

type randomMapper struct {
	seed int64
	rng  *rand.Rand // nil until the first Choose
}

func (r *randomMapper) Name() string { return "random" }

func (r *randomMapper) Choose(v View) int {
	if r.rng == nil {
		r.rng = rand.New(rand.NewSource(r.seed))
	}
	return r.rng.Intn(len(v.Neighbours))
}

// NewWeighted returns the hint-aware adaptive mapper. Each neighbour is
// scored as
//
//	score = lastHeardLoad + alpha * outstandingHintWeight
//
// where outstandingHintWeight sums the hints of work this node assigned to
// that neighbour since its last activity update (each hint defaults to 1
// when absent). The optimistic term corrects the staleness that makes plain
// least-busy herd onto one neighbour; alpha scales how strongly.
func NewWeighted(alpha float64) Factory {
	return func(self sched.PID, nbrs []sched.PID, seed int64) Algorithm {
		return weighted{alpha: alpha}
	}
}

type weighted struct {
	alpha float64
}

func (w weighted) Name() string { return "weighted" }

func (w weighted) Choose(v View) int {
	best, bestScore := 0, score(v, 0, w.alpha)
	for i := 1; i < len(v.Loads); i++ {
		if s := score(v, i, w.alpha); s < bestScore {
			best, bestScore = i, s
		}
	}
	return best
}

func score(v View, i int, alpha float64) float64 {
	// The explicit conversion rounds the product, so no port fuses it into
	// a multiply-add and every architecture scores alike.
	return float64(v.Loads[i]) + float64(alpha*v.Outstanding[i])
}

// Registry maps mapper spec strings to factories:
//
//	rr            round-robin (paper, static)
//	rr-stagger    round-robin with per-node phase offsets
//	lbn           least-busy-neighbour (paper, adaptive)
//	random        uniform random
//	weighted      hint-aware least-busy with default alpha=1
//	weighted:2.5  hint-aware least-busy with explicit alpha
//	ideal         globally coordinated round-robin (idealised baseline)
func Registry(spec string) (Factory, error) {
	name, arg, hasArg := strings.Cut(spec, ":")
	switch name {
	case "rr":
		return NewRoundRobin(), nil
	case "rr-stagger":
		return NewStaggeredRoundRobin(), nil
	case "lbn":
		return NewLeastBusy(), nil
	case "random":
		return NewRandom(), nil
	case "ideal":
		return NewGlobalRoundRobin(), nil
	case "weighted":
		alpha := 1.0
		if hasArg {
			if _, err := fmt.Sscanf(arg, "%g", &alpha); err != nil {
				return nil, fmt.Errorf("mapping: bad weighted alpha %q", arg)
			}
		}
		return NewWeighted(alpha), nil
	default:
		return nil, fmt.Errorf("mapping: unknown mapper %q (want rr|rr-stagger|lbn|random|weighted[:alpha]|ideal)", spec)
	}
}
