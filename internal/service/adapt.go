package service

import (
	"encoding/json"
	"sort"
	"strings"
	"sync"

	"hypersolve/internal/store"
)

// defaultPortfolio is the strategy set a `"portfolio": ["auto"]` job races:
// the paper's three headline mappers. The service launches them in its
// learned order for the job's problem class.
func defaultPortfolio() []string { return []string{"rr", "lbn", "weighted"} }

// problemClass buckets a spec for the strategy-stats table. Classing by
// workload kind is deliberately coarse: the paper's result is that the best
// mapper is a property of the search-tree shape, which the kind dominates.
func problemClass(spec JobSpec) string {
	kind := strings.ToLower(spec.Kind)
	if kind == "dimacs" {
		return "sat"
	}
	return kind
}

// strategyStats is the adaptive half of portfolio racing: a per-problem-
// class table of which strategy's attempt won each finished race. The
// table is rebuilt from the store's attempt ledgers on startup (so it
// survives restarts and rides replication to a promoted standby) and
// ordered rankings bias future races toward historical winners.
type strategyStats struct {
	mu   sync.Mutex
	wins map[string]map[string]int // class -> strategy -> wins
}

func newStrategyStats() *strategyStats {
	return &strategyStats{wins: make(map[string]map[string]int)}
}

// Record counts one race win for strategy on the given problem class.
func (t *strategyStats) Record(class, strategy string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.wins[class]
	if m == nil {
		m = make(map[string]int)
		t.wins[class] = m
	}
	m[strategy]++
}

// Rank returns candidates ordered by historical win count for class,
// descending, preserving the given order among ties — so an unseen class
// launches the portfolio exactly as submitted (or as defaultPortfolio
// lists it, for "auto").
func (t *strategyStats) Rank(class string, candidates []string) []string {
	out := append([]string(nil), candidates...)
	counts := make(map[string]int, len(out))
	t.mu.Lock()
	for _, c := range out {
		counts[c] = t.wins[class][c]
	}
	t.mu.Unlock()
	sort.SliceStable(out, func(i, k int) bool { return counts[out[i]] > counts[out[k]] })
	return out
}

// rebuildAdapt replays the store's attempt ledgers into the stats table:
// every done portfolio job with a recorded winner counts as one win. Runs
// once, before recover(), so re-admitted "auto" jobs race in the learned
// order.
func (s *Service) rebuildAdapt() {
	for _, sj := range s.store.List(store.StateDone) {
		doc, ok := attemptsFromRecord(sj)
		if !ok || doc.Winner == "" {
			continue
		}
		var spec JobSpec
		_ = json.Unmarshal(sj.Spec, &spec)
		s.adapt.Record(problemClass(spec), doc.Winner)
	}
}

// resolveStrategies fixes a job's attempt list at admission: a solo job is
// a single attempt under its mapper; a portfolio job races its entries —
// "auto" expanding to the default set — launched in the stats table's
// learned order for the job's class.
func (s *Service) resolveStrategies(spec JobSpec, built *Compiled) []string {
	if !built.portfolio {
		return built.strategies
	}
	return s.adapt.Rank(problemClass(spec), built.strategies)
}
