// Benchmarks regenerating the paper's evaluation artifacts (Figure 4 and
// Figure 5) plus the ablations A1-A8 below (BenchmarkAblation*). Each
// benchmark iteration simulates one full SAT solve (or other workload) on
// one machine configuration and reports the simulated computation time as
// the custom metric "steps" alongside the wall-clock ns/op.
//
// The full paper tables are produced by `go run ./cmd/figures`; these
// benchmarks exercise the same code paths per configuration point so that
// `go test -bench . -benchmem` documents both simulated and host cost.
package hypersolve_test

import (
	"fmt"
	"sync"
	"testing"

	hypersolve "hypersolve"
	"hypersolve/internal/apps"
	"hypersolve/internal/sat"
)

// benchSuite lazily generates the benchmark instances shared by all
// benchmarks: one uf50-218 instance (the scalability workload family) and
// one uf20-91 instance (the paper's literal workload).
var benchSuite = struct {
	once sync.Once
	uf50 hypersolve.Formula
	uf20 hypersolve.Formula
}{}

func benchInstances(b *testing.B) (uf50, uf20 hypersolve.Formula) {
	b.Helper()
	benchSuite.once.Do(func() {
		s50, err := hypersolve.GenerateSATSuite(sat.SuiteParams{
			Count: 1, NumVars: 50, NumClauses: 218, Seed: 11, RequireSAT: true,
		})
		if err != nil {
			panic(err)
		}
		s20, err := hypersolve.GenerateSATSuite(sat.SuiteParams{
			Count: 1, NumVars: 20, NumClauses: 91, Seed: 11, RequireSAT: true,
		})
		if err != nil {
			panic(err)
		}
		benchSuite.uf50 = s50[0]
		benchSuite.uf20 = s20[0]
	})
	return benchSuite.uf50, benchSuite.uf20
}

// runSAT simulates one distributed solve and returns the computation time.
func runSAT(b *testing.B, cfg hypersolve.Config, f hypersolve.Formula) int64 {
	b.Helper()
	res, err := hypersolve.Run(cfg, hypersolve.NewSATProblem(f))
	if err != nil {
		b.Fatal(err)
	}
	if !res.OK {
		b.Fatal("simulation did not complete")
	}
	return res.ComputationTime
}

// BenchmarkFigure4 exercises every (series, core count) point of the
// paper's Figure 4 on one representative instance. The mean-over-20-
// instances tables are produced by `go run ./cmd/figures -fig 4`.
func BenchmarkFigure4(b *testing.B) {
	uf50, _ := benchInstances(b)
	type series struct {
		label  string
		topo   func(int) (hypersolve.Topology, error)
		mapper hypersolve.MapperFactory
		sizes  []int
	}
	cube := func(c int) (hypersolve.Topology, error) {
		switch c {
		case 27:
			return hypersolve.NewTorus(3, 3, 3)
		case 216:
			return hypersolve.NewTorus(6, 6, 6)
		case 1000:
			return hypersolve.NewTorus(10, 10, 10)
		}
		return nil, fmt.Errorf("unsupported cube size %d", c)
	}
	square := func(c int) (hypersolve.Topology, error) {
		switch c {
		case 16:
			return hypersolve.NewTorus(4, 4)
		case 196:
			return hypersolve.NewTorus(14, 14)
		case 1024:
			return hypersolve.NewTorus(32, 32)
		}
		return nil, fmt.Errorf("unsupported square size %d", c)
	}
	all := []series{
		{"2DTorus_RR", square, hypersolve.RoundRobinMapper(), []int{16, 196, 1024}},
		{"3DTorus_RR", cube, hypersolve.RoundRobinMapper(), []int{27, 216, 1000}},
		{"2DTorus_LBN", square, hypersolve.LeastBusyMapper(), []int{16, 196, 1024}},
		{"3DTorus_LBN", cube, hypersolve.LeastBusyMapper(), []int{27, 216, 1000}},
		{"FullyConnected", hypersolve.NewFullyConnected, hypersolve.GlobalRoundRobinMapper(), []int{16, 196, 1024}},
	}
	for _, s := range all {
		for _, cores := range s.sizes {
			b.Run(fmt.Sprintf("%s/%d", s.label, cores), func(b *testing.B) {
				topo, err := s.topo(cores)
				if err != nil {
					b.Fatal(err)
				}
				var steps int64
				for i := 0; i < b.N; i++ {
					steps = runSAT(b, hypersolve.Config{
						Topology: topo,
						Mapper:   s.mapper,
						Task:     hypersolve.SATTask(hypersolve.HeuristicFirst),
						Seed:     int64(i),
					}, uf50)
				}
				b.ReportMetric(float64(steps), "steps")
			})
		}
	}
}

// BenchmarkFigure5 exercises the unfolding experiment: one instance on the
// paper's 196-core 2D torus with full trace recording, per mapper.
func BenchmarkFigure5(b *testing.B) {
	uf50, _ := benchInstances(b)
	for _, m := range []struct {
		name   string
		mapper hypersolve.MapperFactory
	}{
		{"RoundRobin", hypersolve.RoundRobinMapper()},
		{"LeastBusyNeighbour", hypersolve.LeastBusyMapper()},
	} {
		b.Run(m.name, func(b *testing.B) {
			var steps int64
			var peak int
			for i := 0; i < b.N; i++ {
				res, err := hypersolve.Run(hypersolve.Config{
					Topology:     hypersolve.MustTorus(14, 14),
					Mapper:       m.mapper,
					Task:         hypersolve.SATTask(hypersolve.HeuristicFirst),
					RecordSeries: true,
					Seed:         int64(i),
				}, hypersolve.NewSATProblem(uf50))
				if err != nil {
					b.Fatal(err)
				}
				steps = res.ComputationTime
				peak = res.QueuedSeries.Max()
			}
			b.ReportMetric(float64(steps), "steps")
			b.ReportMetric(float64(peak), "peak-queued")
		})
	}
}

// BenchmarkFigure4UF20 runs the paper's literal uf20-91 workload for
// reference (the trees are small; machines saturate early).
func BenchmarkFigure4UF20(b *testing.B) {
	_, uf20 := benchInstances(b)
	for _, cores := range []struct {
		name string
		topo hypersolve.Topology
	}{
		{"2DTorus/196", hypersolve.MustTorus(14, 14)},
		{"3DTorus/216", hypersolve.MustTorus(6, 6, 6)},
	} {
		b.Run(cores.name, func(b *testing.B) {
			var steps int64
			for i := 0; i < b.N; i++ {
				steps = runSAT(b, hypersolve.Config{
					Topology: cores.topo,
					Mapper:   hypersolve.LeastBusyMapper(),
					Task:     hypersolve.SATTask(hypersolve.HeuristicFirst),
					Seed:     int64(i),
				}, uf20)
			}
			b.ReportMetric(float64(steps), "steps")
		})
	}
}

// BenchmarkAblationMapperFanout (A1): fixed-fanout workloads have a
// predictable unfolding, the case the paper argues favours static mapping
// (Section III-B2). Fibonacci forks exactly two subcalls per frame.
func BenchmarkAblationMapperFanout(b *testing.B) {
	for _, m := range []struct {
		name   string
		mapper hypersolve.MapperFactory
	}{
		{"static-rr", hypersolve.RoundRobinMapper()},
		{"adaptive-lbn", hypersolve.LeastBusyMapper()},
		{"random", hypersolve.RandomMapper()},
	} {
		b.Run(m.name, func(b *testing.B) {
			var steps int64
			for i := 0; i < b.N; i++ {
				res, err := hypersolve.Run(hypersolve.Config{
					Topology: hypersolve.MustTorus(8, 8),
					Mapper:   m.mapper,
					Task:     hypersolve.FibTask(),
					Seed:     int64(i),
				}, 16)
				if err != nil {
					b.Fatal(err)
				}
				steps = res.ComputationTime
			}
			b.ReportMetric(float64(steps), "steps")
		})
	}
}

// BenchmarkAblationHintedMapping (A2): on a deliberately skewed tree, the
// hint-aware weighted mapper can use sub-problem size hints that plain
// least-busy ignores (paper Section III-B3).
func BenchmarkAblationHintedMapping(b *testing.B) {
	for _, m := range []struct {
		name   string
		mapper hypersolve.MapperFactory
	}{
		{"lbn-ignores-hints", hypersolve.LeastBusyMapper()},
		{"weighted-alpha1", hypersolve.WeightedMapper(1)},
		{"weighted-alpha4", hypersolve.WeightedMapper(4)},
	} {
		b.Run(m.name, func(b *testing.B) {
			var steps int64
			for i := 0; i < b.N; i++ {
				res, err := hypersolve.Run(hypersolve.Config{
					Topology: hypersolve.MustTorus(8, 8),
					Mapper:   m.mapper,
					Task:     apps.UnbalancedTask(),
					Seed:     int64(i),
				}, 64)
				if err != nil {
					b.Fatal(err)
				}
				steps = res.ComputationTime
			}
			b.ReportMetric(float64(steps), "steps")
		})
	}
}

// BenchmarkAblationHeuristics (A3): branching heuristic impact on the
// distributed DPLL tree and hence on simulated time.
func BenchmarkAblationHeuristics(b *testing.B) {
	uf50, _ := benchInstances(b)
	for _, h := range []hypersolve.Heuristic{
		hypersolve.HeuristicFirst, hypersolve.HeuristicFreq,
		hypersolve.HeuristicJW, hypersolve.HeuristicDLIS,
	} {
		b.Run(h.String(), func(b *testing.B) {
			var steps int64
			for i := 0; i < b.N; i++ {
				steps = runSAT(b, hypersolve.Config{
					Topology: hypersolve.MustTorus(14, 14),
					Mapper:   hypersolve.LeastBusyMapper(),
					Task:     hypersolve.SATTask(h),
					Seed:     int64(i),
				}, uf50)
			}
			b.ReportMetric(float64(steps), "steps")
		})
	}
}

// BenchmarkAblationProcsPerCore (A4): layer-2 oversubscription. More
// processes per core enlarge the virtual machine without adding hardware.
func BenchmarkAblationProcsPerCore(b *testing.B) {
	uf50, _ := benchInstances(b)
	for _, procs := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("procs-%d", procs), func(b *testing.B) {
			var steps int64
			for i := 0; i < b.N; i++ {
				steps = runSAT(b, hypersolve.Config{
					Topology:     hypersolve.MustTorus(7, 7),
					Mapper:       hypersolve.LeastBusyMapper(),
					Task:         hypersolve.SATTask(hypersolve.HeuristicFirst),
					ProcsPerNode: procs,
					Seed:         int64(i),
				}, uf50)
			}
			b.ReportMetric(float64(steps), "steps")
		})
	}
}

// BenchmarkAblationLinkModel (A5): layer-1 link latency and bandwidth
// sensitivity (the buffering/bandwidth/latency concerns of Figure 2).
func BenchmarkAblationLinkModel(b *testing.B) {
	uf50, _ := benchInstances(b)
	cases := []struct {
		name string
		link hypersolve.LinkConfig
	}{
		{"baseline", hypersolve.LinkConfig{}},
		{"latency-4", hypersolve.LinkConfig{LinkLatency: 4}},
		{"bandwidth-4", hypersolve.LinkConfig{DeliverPerStep: 4}},
		{"lossy-10pct-reliable", hypersolve.LinkConfig{LossRate: 0.1, Reliable: true}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var steps int64
			for i := 0; i < b.N; i++ {
				steps = runSAT(b, hypersolve.Config{
					Topology: hypersolve.MustTorus(14, 14),
					Mapper:   hypersolve.LeastBusyMapper(),
					Task:     hypersolve.SATTask(hypersolve.HeuristicFirst),
					Seed:     int64(i),
					Link:     c.link,
				}, uf50)
			}
			b.ReportMetric(float64(steps), "steps")
		})
	}
}

// BenchmarkAblationQueueModel (A6): per-node vs per-link queues — the two
// readings of the paper's simulator semantics (see the internal/simulator
// package documentation).
func BenchmarkAblationQueueModel(b *testing.B) {
	uf50, _ := benchInstances(b)
	for _, c := range []struct {
		name  string
		model hypersolve.LinkConfig
	}{
		{"node-queues", hypersolve.LinkConfig{QueueModel: hypersolve.NodeQueues}},
		{"link-queues", hypersolve.LinkConfig{QueueModel: hypersolve.LinkQueues}},
	} {
		b.Run(c.name, func(b *testing.B) {
			var steps int64
			for i := 0; i < b.N; i++ {
				steps = runSAT(b, hypersolve.Config{
					Topology: hypersolve.MustTorus(14, 14),
					Mapper:   hypersolve.RoundRobinMapper(),
					Task:     hypersolve.SATTask(hypersolve.HeuristicFirst),
					Seed:     int64(i),
					Link:     c.model,
				}, uf50)
			}
			b.ReportMetric(float64(steps), "steps")
		})
	}
}

// BenchmarkAblationRRStagger (A7): lockstep vs per-node staggered
// round-robin cursors on a dense topology.
func BenchmarkAblationRRStagger(b *testing.B) {
	uf50, _ := benchInstances(b)
	for _, m := range []struct {
		name   string
		mapper hypersolve.MapperFactory
	}{
		{"rr-lockstep", hypersolve.RoundRobinMapper()},
		{"rr-staggered", hypersolve.StaggeredRoundRobinMapper()},
	} {
		b.Run(m.name, func(b *testing.B) {
			topo, err := hypersolve.NewFullyConnected(256)
			if err != nil {
				b.Fatal(err)
			}
			var steps int64
			for i := 0; i < b.N; i++ {
				steps = runSAT(b, hypersolve.Config{
					Topology: topo,
					Mapper:   m.mapper,
					Task:     hypersolve.SATTask(hypersolve.HeuristicFirst),
					Seed:     int64(i),
				}, uf50)
			}
			b.ReportMetric(float64(steps), "steps")
		})
	}
}

// BenchmarkAblationSimplifyMode (A8): single-pass (paper Listing 4) vs
// fixpoint simplification — pruning strength against exposed parallelism.
func BenchmarkAblationSimplifyMode(b *testing.B) {
	uf50, _ := benchInstances(b)
	for _, m := range []struct {
		name string
		mode sat.SimplifyMode
	}{
		{"onepass", sat.OnePass},
		{"fixpoint", sat.Fixpoint},
	} {
		b.Run(m.name, func(b *testing.B) {
			var steps int64
			for i := 0; i < b.N; i++ {
				res, err := hypersolve.Run(hypersolve.Config{
					Topology: hypersolve.MustTorus(14, 14),
					Mapper:   hypersolve.LeastBusyMapper(),
					Task:     sat.TaskWithMode(sat.FirstUnassigned, m.mode),
					Seed:     int64(i),
				}, hypersolve.NewSATProblem(uf50))
				if err != nil {
					b.Fatal(err)
				}
				if !res.OK {
					b.Fatal("did not complete")
				}
				steps = res.ComputationTime
			}
			b.ReportMetric(float64(steps), "steps")
		})
	}
}

// BenchmarkSequentialDPLL measures the pure layer-5 baseline without any
// simulation overhead.
func BenchmarkSequentialDPLL(b *testing.B) {
	uf50, uf20 := benchInstances(b)
	for _, c := range []struct {
		name string
		f    hypersolve.Formula
	}{{"uf20-91", uf20}, {"uf50-218", uf50}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := hypersolve.SolveSAT(c.f, hypersolve.SATOptions{})
				if res.Status != hypersolve.StatusSAT {
					b.Fatal("expected SAT")
				}
			}
		})
	}
}

// uf50Unsat returns 24 unsatisfiable phase-transition instances (50
// variables, 213 clauses) whose sequential search takes 600-1800 DPLL calls:
// the difficulty band of the benchmark's lib-uf50 ladder, so a change to
// layers 4-5 can be measured with `go test -bench UF50Unsat` between harness
// runs.
var uf50Unsat = sync.OnceValue(func() []hypersolve.Formula {
	pool, err := hypersolve.GenerateSATSuite(sat.SuiteParams{Count: 128, NumVars: 50, NumClauses: 213, Seed: 1})
	if err != nil {
		panic(err)
	}
	var picked []hypersolve.Formula
	for _, f := range pool {
		res := hypersolve.SolveSAT(f, hypersolve.SATOptions{MaxCalls: 1800})
		if res.Status == hypersolve.StatusUNSAT && res.Calls >= 600 && len(picked) < 24 {
			picked = append(picked, f)
		}
	}
	if len(picked) < 24 {
		panic(fmt.Sprintf("uf50 pool holds %d usable instances, want 24", len(picked)))
	}
	return picked
})

// uf50Config is lib-uf50's machine: a fresh one is built for every solve.
func uf50Config() hypersolve.Config {
	return hypersolve.Config{
		Topology: hypersolve.MustTorus(14, 14),
		Mapper:   hypersolve.LeastBusyMapper(),
		Task:     hypersolve.SATTask(hypersolve.HeuristicFirst),
		Seed:     1,
	}
}

// BenchmarkUF50Unsat solves the 24 instances in rotation: "lib" through the
// whole stack, "seq" with the sequential oracle the harness sizes its ladder
// with. One op is one solve.
func BenchmarkUF50Unsat(b *testing.B) {
	suite := uf50Unsat()
	b.Run("lib", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := hypersolve.Run(uf50Config(), hypersolve.NewSATProblem(suite[i%len(suite)]))
			if err != nil {
				b.Fatal(err)
			}
			if o, ok := res.Value.(hypersolve.SATOutcome); !ok || o.Status != hypersolve.StatusUNSAT {
				b.Fatalf("solve %d: %+v, want UNSAT", i, res.Value)
			}
		}
	})
	b.Run("seq", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if res := hypersolve.SolveSAT(suite[i%len(suite)], hypersolve.SATOptions{}); res.Status != hypersolve.StatusUNSAT {
				b.Fatalf("solve %d: %v, want UNSAT", i, res.Status)
			}
		}
	})
}
