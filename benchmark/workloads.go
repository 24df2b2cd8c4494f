package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"

	"hypersolve"
	"hypersolve/internal/apps"
)

// workload is one named set of inputs. HTTP workloads drive real
// hypersolved processes; lib workloads call the facade in-process.
type workload struct {
	name string
	why  string
	// sharded selects the router + 2 shards + standby fleet over the single
	// memory-store daemon; batch is how many jobs a client submits
	// back-to-back before collecting them. Both are HTTP-only.
	http    bool
	sharded bool
	batch   int
	// warmUp is the least number of jobs solved, in whole passes, before
	// anything is timed: a fixed amount of work, not a fixed time, so that
	// work a change moves into set-up shows in set-up time.
	warmUp int
	// cases builds the instance list from the seed.
	cases func(seed int64) ([]libCase, error)
}

// generators is the fixed load of every workload: two generator goroutines
// (connections), each waiting for its reply before sending again. Callers of
// this system — `hyperctl submit -wait`, batch drivers, RunSuite — all wait
// for their reply, so the loop is closed. Two is also the CPU count of the
// reference host; the load does not grow on bigger hosts.
const generators = 2

var workloads = []workload{
	{
		name: "svc-uf20-mem",
		why:  "1 ms solve in a 2.3 ms job: HTTP, service, tracelog, telemetry and machine build dominate; store and cluster idle",
		http: true, batch: 1,
		warmUp: 768, // the daemon's first second runs ~10 % slow
		cases:  uf20Cases,
	},
	{
		name: "fleet-uf20-fsync",
		why:  "same jobs through router, fsync WAL shards and a standby, batches of 8: what store, cluster and replication cost",
		http: true, sharded: true, batch: 8,
		// Past the 2×1024-record replication tail on both shards (5 records a
		// job, the lighter shard takes ~40 %): an append costs more once the
		// tail is full, and a long-running fleet always has a full tail.
		warmUp: 1280,
		cases:  uf20Cases,
	},
	{
		name:  "lib-uf50",
		why:   "phase-transition UNSAT 3-SAT (50 vars, ratio 4.26) in-process: sat, recursion, mapping, sched, simulator do all the work",
		batch: 1, warmUp: 64,
		cases: uf50Cases,
	},
	{
		name:  "lib-forkjoin",
		why:   "fib, queens, knapsack on four rotating topologies: layers 1-4 with a negligible layer 5; a sat-only change must not move it",
		batch: 1, warmUp: 64,
		cases: forkJoinCases,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// libCase is one instance: the machine to build, the task to run on it and
// the oracle that says whether the answer is right. For HTTP workloads the
// same instance travels as a JobSpec body instead.
type libCase struct {
	name     string
	topology string
	mapper   string
	procs    int
	latency  int64 // link_latency; 0 = the simulator's default of 1

	task func() (hypersolve.Task, hypersolve.Value)
	// check verifies the root value against the sequential oracle and
	// renders it for the determinism digest.
	check func(v hypersolve.Value) (string, error)

	// SAT instances only.
	formula *hypersolve.Formula
	wantSAT bool
}

// jobSpec renders the instance as a POST /v1/jobs body. Only fields every
// version of the API has had are set: engine, portfolio and friends stay at
// their defaults.
func (c libCase) jobSpec() ([]byte, error) {
	if c.formula == nil {
		return nil, fmt.Errorf("case %s: only SAT instances travel over HTTP", c.name)
	}
	return json.Marshal(map[string]any{
		"kind":     "sat",
		"cnf":      writeDIMACS(*c.formula),
		"topology": c.topology,
		"mapper":   c.mapper,
	})
}

// writeDIMACS renders a formula as DIMACS CNF text, the wire form of SAT
// jobs.
func writeDIMACS(f hypersolve.Formula) string {
	var b strings.Builder
	fmt.Fprintf(&b, "p cnf %d %d\n", f.NumVars, len(f.Clauses))
	for _, c := range f.Clauses {
		for _, l := range c {
			b.WriteString(strconv.Itoa(int(l)))
			b.WriteByte(' ')
		}
		b.WriteString("0\n")
	}
	return b.String()
}

// satSuite draws count uniform random 3-SAT instances from the seed.
func satSuite(seed int64, count, vars, clauses int, requireSAT bool) ([]hypersolve.Formula, error) {
	p := hypersolve.UF20Params(seed)
	p.Count, p.NumVars, p.NumClauses, p.RequireSAT = count, vars, clauses, requireSAT
	return hypersolve.GenerateSATSuite(p)
}

// satCase wraps one formula whose verdict the sequential oracle has decided.
func satCase(name string, f hypersolve.Formula, wantSAT bool) libCase {
	return libCase{
		name:     name,
		topology: "torus:14x14",
		mapper:   "lbn",
		formula:  &f,
		wantSAT:  wantSAT,
		task: func() (hypersolve.Task, hypersolve.Value) {
			return hypersolve.SATTask(hypersolve.HeuristicFirst), hypersolve.NewSATProblem(f)
		},
		check: func(v hypersolve.Value) (string, error) {
			o, ok := v.(hypersolve.SATOutcome)
			if !ok {
				return "", fmt.Errorf("root value is %T, want a SAT outcome", v)
			}
			return checkSAT(f, wantSAT, o.Status.String(), o.Assignment)
		},
	}
}

// uf20Cases is the paper's instance class: satisfiable uniform random 3-SAT,
// 20 variables, 91 clauses.
func uf20Cases(seed int64) ([]libCase, error) {
	suite, err := satSuite(seed, 256, 20, 91, true)
	if err != nil {
		return nil, err
	}
	cases := make([]libCase, len(suite))
	for i, f := range suite {
		cases[i] = satCase(fmt.Sprintf("uf20-%d", i), f, true)
	}
	return cases, nil
}

// The uf50 ladder. Random instances at the phase transition differ in search
// tree size by an order of magnitude, and the mean over a few dozen of them
// moves ±10 % from seed to seed — more than any bound worth having. So the
// seed draws a pool, the sequential oracle sizes each unsatisfiable instance
// (on those the distributed solver evaluates exactly the oracle's DPLL calls,
// frame for call), and the workload keeps the instance nearest to each rung
// of a fixed geometric ladder of sizes. Every seed then solves different
// formulas of the same difficulty profile. Satisfiable instances are left to
// the uf20 workloads: the oracle stops at the first witness while the
// distributed solver explores the whole tree, so it cannot size them.
const (
	uf50Pool           = 128
	uf50Rungs          = 24
	uf50Easy, uf50Hard = 600.0, 1800.0 // DPLL calls at the ladder's ends
)

func uf50Cases(seed int64) ([]libCase, error) {
	pool, err := satSuite(seed, uf50Pool, 50, 213, false)
	if err != nil {
		return nil, err
	}
	// Size the pool on every generator's CPU; results land by index, so the
	// outcome does not depend on scheduling. Searches past the ladder's hard
	// end are cut short: they would not be picked anyway.
	calls := make([]int64, len(pool)) // 0: satisfiable or too hard
	var wg sync.WaitGroup
	for g := 0; g < generators; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(pool); i += generators {
				res := hypersolve.SolveSAT(pool[i], hypersolve.SATOptions{
					Heuristic: hypersolve.HeuristicFirst, MaxCalls: int64(1.1 * uf50Hard),
				})
				if res.Status == hypersolve.StatusUNSAT {
					calls[i] = res.Calls
				}
			}
		}()
	}
	wg.Wait()
	picked, err := pickLadder(calls)
	if err != nil {
		return nil, fmt.Errorf("seed %d: %w", seed, err)
	}
	cases := make([]libCase, len(picked))
	for k, i := range picked {
		cases[k] = satCase(fmt.Sprintf("uf50-%d", i), pool[i], false)
	}
	return cases, nil
}

// pickLadder chooses, for each rung of the ladder, the unused pool instance
// whose size is nearest, then trades single instances for unused ones of
// similar size for as long as that brings the total closer to the ladder's
// own: the rungs fix the shape of the size distribution, the trades pin its
// sum. size[i] <= 0 marks an instance that cannot be used.
func pickLadder(size []int64) ([]int, error) {
	size = append([]int64(nil), size...)
	abs := func(x int64) int64 { return max(x, -x) }
	rungs := make([]int64, uf50Rungs)
	picked := make([]int, uf50Rungs)
	var gap int64 // picked total − ladder total; whole calls, so every trade that helps helps by at least one
	for k := range rungs {
		rungs[k] = int64(math.Round(uf50Easy * math.Pow(uf50Hard/uf50Easy, float64(k)/(uf50Rungs-1))))
		best := -1
		for i, c := range size {
			if c > 0 && (best < 0 || abs(c-rungs[k]) < abs(size[best]-rungs[k])) {
				best = i
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("pool of %d holds fewer than %d usable instances", len(size), uf50Rungs)
		}
		picked[k] = best
		gap += size[best] - rungs[k]
		size[best] = -size[best] // taken; the magnitude is still needed for trades
	}
	const tradeWithin = 15 // percent: a trade may not move an instance further than this from its rung
	for {
		bestK, bestI, bestGap := -1, -1, abs(gap)
		for k, old := range picked {
			for i, c := range size {
				if c <= 0 || 100*abs(c-rungs[k]) > tradeWithin*rungs[k] {
					continue
				}
				if g := abs(gap + c + size[old]); g < bestGap { // size[old] is negated
					bestK, bestI, bestGap = k, i, g
				}
			}
		}
		if bestK < 0 {
			return picked, nil
		}
		old := picked[bestK]
		gap += size[bestI] + size[old]
		size[old], size[bestI], picked[bestK] = -size[old], -size[bestI], bestI
	}
}

// checkSAT is the SAT correctness gate shared by lib and HTTP workloads: the
// verdict must match the sequential oracle's and a SAT witness must satisfy
// the formula the benchmark generated.
func checkSAT(f hypersolve.Formula, wantSAT bool, status string, a hypersolve.Assignment) (string, error) {
	switch {
	case status == "SAT" && !wantSAT:
		return "", fmt.Errorf("answered SAT, oracle says UNSAT")
	case status == "UNSAT" && wantSAT:
		return "", fmt.Errorf("answered UNSAT, oracle says SAT")
	case status == "UNSAT":
		return "UNSAT", nil
	case status != "SAT":
		return "", fmt.Errorf("verdict %q", status)
	}
	if !hypersolve.VerifySAT(f, a) {
		return "", fmt.Errorf("witness does not satisfy the formula")
	}
	var b strings.Builder
	b.WriteString("SAT")
	for v := 1; v < len(a); v++ {
		fmt.Fprintf(&b, " %d", int(a[v])*v)
	}
	return b.String(), nil
}

// assignmentFromLits turns the wire form of a witness (DIMACS literals) back
// into an assignment over numVars variables.
func assignmentFromLits(numVars int, lits []int) (hypersolve.Assignment, error) {
	a := make(hypersolve.Assignment, numVars+1)
	for _, l := range lits {
		v := max(l, -l)
		if l == 0 || v > numVars {
			return nil, fmt.Errorf("witness literal %d out of range 1..%d", l, numVars)
		}
		a.Set(hypersolve.Lit(l))
	}
	return a, nil
}

// forkJoinCases is a fixed rotation of four non-SAT solves, each a few
// milliseconds: dense fork-join, sparse high-latency traffic (the event
// heap's case), scheduler oversubscription, and a hinted 3D case. Four
// different topologies in rotation is the worst case for any cache of
// machine skeletons; the first two workloads, with one topology for every
// job, are its best case.
func forkJoinCases(seed int64) ([]libCase, error) {
	intCheck := func(want int) func(hypersolve.Value) (string, error) {
		return func(v hypersolve.Value) (string, error) {
			got, ok := v.(int)
			if !ok {
				return "", fmt.Errorf("root value is %T, want int", v)
			}
			if got != want {
				return "", fmt.Errorf("got %d, sequential oracle says %d", got, want)
			}
			return strconv.Itoa(got), nil
		}
	}
	fib := func(name, topo string, n int, latency int64) libCase {
		return libCase{
			name: name, topology: topo, mapper: "rr", latency: latency,
			task:  func() (hypersolve.Task, hypersolve.Value) { return hypersolve.FibTask(), n },
			check: intCheck(apps.FibSeq(n)),
		}
	}
	// The knapsack is the one case whose work depends on the seed (its
	// branch-and-bound tree moves ±10 % with the items), so it is kept the
	// cheapest of the three big cases: the rotation's throughput and its p90,
	// which falls in the slowest case, then hardly move with the seed.
	rng := rand.New(rand.NewSource(seed))
	items := make([]hypersolve.KnapsackItem, 12)
	capacity := 0
	for i := range items {
		items[i] = hypersolve.KnapsackItem{Weight: 1 + rng.Intn(20), Value: 1 + rng.Intn(40)}
		capacity += items[i].Weight
	}
	capacity /= 2
	return []libCase{
		fib("fib-dense", "torus:14x14", 15, 0),
		fib("fib-latency", "torus:24x24", 14, 400),
		{
			name: "queens", topology: "hypercube:8", mapper: "lbn", procs: 2,
			task: func() (hypersolve.Task, hypersolve.Value) {
				return hypersolve.QueensTask(3), hypersolve.QueensState{N: 7}
			},
			check: intCheck(hypersolve.QueensSeq(7)),
		},
		{
			name: "knapsack", topology: "torus:6x6x6", mapper: "weighted",
			task: func() (hypersolve.Task, hypersolve.Value) {
				return hypersolve.KnapsackTask(3), hypersolve.NewKnapsack(items, capacity)
			},
			check: intCheck(hypersolve.KnapsackDP(items, capacity)),
		},
	}, nil
}
