// Package experiments regenerates the evaluation artifacts of Tarawneh et
// al. (P2S2 2017): Figure 4 (SAT solver scalability across topologies and
// mapping algorithms) and Figure 5 (temporal and spatial unfolding of the
// computation on a 196-core 2D torus). See EXPERIMENTS.md for the mapping
// from paper artifact to harness entry point and for measured results.
package experiments

import (
	"fmt"
	"strings"

	"hypersolve/internal/core"
	"hypersolve/internal/mapping"
	"hypersolve/internal/mesh"
	"hypersolve/internal/metrics"
	"hypersolve/internal/parallel"
	"hypersolve/internal/sat"
)

// Workload is the benchmark input: the paper uses 20 satisfiable uniform
// random 3-SAT problems with 20 variables and 91 clauses (SATLIB uf20-91).
type Workload struct {
	Problems  []sat.Formula
	Heuristic sat.Heuristic
}

// DefaultWorkload generates the scalability benchmark set: 20 satisfiable
// uniform-random 3-SAT instances at the phase-transition ratio, sized
// uf50-218. The paper used SATLIB uf20-91; with single-pass simplification
// those trees (~100 frames) saturate well below the paper's 10^3-core
// sweep, so the default moves one step up the same SATLIB family to keep
// machines busy across the whole core range; sat.UF20Params regenerates
// the paper's literal set.
func DefaultWorkload(seed int64) (Workload, error) {
	suite, err := sat.GenerateSuite(sat.SuiteParams{
		Count: 20, NumVars: 50, NumClauses: 218, Seed: seed, RequireSAT: true,
	})
	if err != nil {
		return Workload{}, err
	}
	return Workload{Problems: suite, Heuristic: sat.FirstUnassigned}, nil
}

// SmallWorkload is a reduced workload (fewer, smaller instances) for tests
// and quick runs.
func SmallWorkload(seed int64, count int) (Workload, error) {
	suite, err := sat.GenerateSuite(sat.SuiteParams{
		Count: count, NumVars: 14, NumClauses: 62, Seed: seed, RequireSAT: true,
	})
	if err != nil {
		return Workload{}, err
	}
	return Workload{Problems: suite, Heuristic: sat.FirstUnassigned}, nil
}

// Series identifies one curve of Figure 4.
type Series struct {
	Label string
	// Build returns the topology for a given core count.
	Build func(cores int) (mesh.Topology, error)
	// Mapper is the mapping algorithm factory shared by every run of the
	// series.
	Mapper mapping.Factory
	// Sizes are the core counts to sweep.
	Sizes []int
}

// Figure4Config parameterises the scalability sweep.
type Figure4Config struct {
	Workload Workload
	Series   []Series
	Seed     int64
	// Parallelism bounds how many simulations run concurrently (each
	// simulator instance is independent and single-threaded). Values <= 0
	// default to runtime.GOMAXPROCS(0); 1 recovers the serial engine.
	// Results are bit-identical at every parallelism level.
	Parallelism int
}

// DefaultFigure4Series returns the five curves of the paper's Figure 4:
// 2D torus and 3D torus each with round-robin (RR) and least-busy-neighbour
// (LBN) mapping, plus the fully connected baseline.
func DefaultFigure4Series(sizes2D, sizes3D, sizesFull []int) []Series {
	return []Series{
		{Label: "2D Torus + RR", Build: mesh.SquareTorus, Mapper: mapping.NewRoundRobin(), Sizes: sizes2D},
		{Label: "3D Torus + RR", Build: mesh.CubeTorus, Mapper: mapping.NewRoundRobin(), Sizes: sizes3D},
		{Label: "2D Torus + LBN", Build: mesh.SquareTorus, Mapper: mapping.NewLeastBusy(), Sizes: sizes2D},
		{Label: "3D Torus + LBN", Build: mesh.CubeTorus, Mapper: mapping.NewLeastBusy(), Sizes: sizes3D},
		// The fully-connected baseline pairs the complete graph with the
		// idealised globally coordinated mapper: the paper treats this
		// machine as the ideal reference, not as a mapping-algorithm
		// evaluation point.
		{Label: "Fully connected", Build: mesh.NewFullyConnected, Mapper: mapping.NewGlobalRoundRobin(), Sizes: sizesFull},
	}
}

// DefaultFigure4Config sweeps the paper's core-count range (roughly 10^1 to
// 10^3) with the full 20-instance workload.
func DefaultFigure4Config(seed int64) (Figure4Config, error) {
	w, err := DefaultWorkload(seed)
	if err != nil {
		return Figure4Config{}, err
	}
	return Figure4Config{
		Workload: w,
		Series: DefaultFigure4Series(
			[]int{16, 49, 100, 196, 400, 784, 1024},
			[]int{27, 64, 125, 216, 512, 1000},
			[]int{16, 64, 256, 1024},
		),
		Seed: seed,
	}, nil
}

// Point is one Figure 4 data point: a (series, core count) pair averaged
// over the workload.
type Point struct {
	Series          string
	Cores           int
	MeanPerformance float64 // mean of 1/steps over problems (paper y-axis)
	Steps           metrics.Summary
	SolvedSAT       int // sanity: how many instances reported SAT
}

// Figure4 runs the sweep and returns one point per (series, size). The
// sweep's (series, size, problem) runs are independent simulations; they are
// fanned out over Config.Parallelism workers and collected by index, so the
// returned points are bit-identical at every parallelism level.
func Figure4(cfg Figure4Config) ([]Point, error) {
	if len(cfg.Workload.Problems) == 0 {
		return nil, fmt.Errorf("experiments: empty workload")
	}
	// Materialise the point list (topology construction is cheap and
	// serial; the simulations are the expensive part).
	type pointSpec struct {
		s    Series
		topo mesh.Topology
	}
	var specs []pointSpec
	for _, s := range cfg.Series {
		for _, cores := range s.Sizes {
			topo, err := s.Build(cores)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s/%d: %w", s.Label, cores, err)
			}
			specs = append(specs, pointSpec{s: s, topo: topo})
		}
	}
	// Flatten to one job per (point, problem) pair for maximal load
	// balance, then reduce per point in order.
	nprob := len(cfg.Workload.Problems)
	type runOut struct {
		perf  float64
		steps float64
		sat   bool
	}
	runs := make([]runOut, len(specs)*nprob)
	err := parallel.ForEach(len(runs), cfg.Parallelism, func(k int) error {
		spec, i := specs[k/nprob], k%nprob
		f := cfg.Workload.Problems[i]
		res, err := core.RunOnce(core.Config{
			Topology: spec.topo,
			Mapper:   spec.s.Mapper,
			Task:     sat.Task(cfg.Workload.Heuristic),
			Seed:     cfg.Seed + int64(i),
		}, sat.NewProblem(f))
		if err != nil {
			return fmt.Errorf("experiments: %s/%d problem %d: %w", spec.s.Label, spec.topo.Size(), i, err)
		}
		if !res.OK {
			return fmt.Errorf("experiments: %s/%d problem %d did not complete within the step limit", spec.s.Label, spec.topo.Size(), i)
		}
		if out, ok := res.Value.(sat.Outcome); ok && out.Status == sat.SAT {
			if !sat.Verify(f, out.Assignment) {
				return fmt.Errorf("experiments: %s/%d problem %d returned invalid assignment", spec.s.Label, spec.topo.Size(), i)
			}
			runs[k].sat = true
		}
		runs[k].perf = res.Performance
		runs[k].steps = float64(res.ComputationTime)
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]Point, len(specs))
	perfs := make([]float64, nprob)
	steps := make([]float64, nprob)
	for p, spec := range specs {
		pt := Point{Series: spec.s.Label, Cores: spec.topo.Size()}
		for i := 0; i < nprob; i++ {
			r := runs[p*nprob+i]
			perfs[i] = r.perf
			steps[i] = r.steps
			if r.sat {
				pt.SolvedSAT++
			}
		}
		pt.MeanPerformance = metrics.Summarize(perfs).Mean
		pt.Steps = metrics.Summarize(steps)
		out[p] = pt
	}
	return out, nil
}

// RenderFigure4 formats the sweep as an aligned text table grouped by
// series, the terminal rendition of the paper's log-log plot.
func RenderFigure4(points []Point) string {
	var b strings.Builder
	b.WriteString("Figure 4: SAT solver scalability (performance = 1/steps, mean over workload)\n")
	current := ""
	for _, p := range points {
		if p.Series != current {
			current = p.Series
			fmt.Fprintf(&b, "\n%s\n", current)
			fmt.Fprintf(&b, "  %8s  %14s  %10s  %10s  %6s\n", "cores", "perf (1/steps)", "mean steps", "std steps", "SAT")
		}
		fmt.Fprintf(&b, "  %8d  %14.6f  %10.1f  %10.1f  %4d/%d\n",
			p.Cores, p.MeanPerformance, p.Steps.Mean, p.Steps.Std, p.SolvedSAT, p.Steps.N)
	}
	return b.String()
}

// Figure4CSV renders the sweep as CSV (series,cores,perf,steps_mean,steps_std).
func Figure4CSV(points []Point) string {
	var b strings.Builder
	b.WriteString("series,cores,mean_performance,steps_mean,steps_std,solved_sat\n")
	for _, p := range points {
		fmt.Fprintf(&b, "%q,%d,%g,%g,%g,%d\n",
			p.Series, p.Cores, p.MeanPerformance, p.Steps.Mean, p.Steps.Std, p.SolvedSAT)
	}
	return b.String()
}
