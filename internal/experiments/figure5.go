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

// Figure5Config parameterises the unfolding experiment: interconnect
// activity traces (queued messages vs time, superimposed across the
// workload) and a node activity heatmap, per mapping algorithm, on the
// paper's 196-core (14x14) 2D torus.
type Figure5Config struct {
	Workload Workload
	// Side is the torus edge length (default 14, the paper's 196 cores).
	Side int
	Seed int64
}

// Figure5Result holds one mapper's unfolding data.
type Figure5Result struct {
	Mapper string
	// Traces is one queued-messages time series per workload problem
	// (superimposed in the paper's top row).
	Traces []metrics.Series
	// Heatmap is the per-node total delivered messages for problem 0 (the
	// paper's bottom row plots one problem).
	Heatmap *metrics.Heatmap
	// Steps summarises computation time over the workload.
	Steps metrics.Summary
	// PeakQueued is the maximum interconnect occupancy over all traces.
	PeakQueued int
}

// Figure5 runs the unfolding experiment for round-robin and
// least-busy-neighbour mapping.
func Figure5(cfg Figure5Config) ([]Figure5Result, error) {
	if len(cfg.Workload.Problems) == 0 {
		return nil, fmt.Errorf("experiments: empty workload")
	}
	side := cfg.Side
	if side <= 0 {
		side = 14
	}
	mappers := []struct {
		name string
		mf   mapping.Factory
	}{
		{"Round Robin", mapping.NewRoundRobin()},
		{"Least Busy Neighbour", mapping.NewLeastBusy()},
	}
	// One job per (mapper, problem) run, fanned out over the worker pool
	// and collected by index.
	nprob := len(cfg.Workload.Problems)
	type runOut struct {
		trace   metrics.Series
		steps   float64
		heatmap *metrics.Heatmap
	}
	runs := make([]runOut, len(mappers)*nprob)
	err := parallel.ForEach(len(runs), 0, func(k int) error {
		m, i := mappers[k/nprob], k%nprob
		topo, err := mesh.NewTorus(side, side)
		if err != nil {
			return err
		}
		machine, err := core.New(core.Config{
			Topology:     topo,
			Mapper:       m.mf,
			Task:         sat.Task(cfg.Workload.Heuristic),
			Seed:         cfg.Seed + int64(i),
			RecordSeries: true,
		})
		if err != nil {
			return err
		}
		res, err := machine.Run(sat.NewProblem(cfg.Workload.Problems[i]))
		if err != nil {
			return err
		}
		if !res.OK {
			return fmt.Errorf("experiments: figure5 %s problem %d did not complete", m.name, i)
		}
		runs[k].trace = res.QueuedSeries
		runs[k].steps = float64(res.ComputationTime)
		if i == 0 {
			runs[k].heatmap = machine.NodeHeatmap(res)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]Figure5Result, len(mappers))
	for mi, m := range mappers {
		r := Figure5Result{Mapper: m.name}
		steps := make([]float64, nprob)
		for i := 0; i < nprob; i++ {
			ro := runs[mi*nprob+i]
			r.Traces = append(r.Traces, ro.trace)
			steps[i] = ro.steps
			if peak := ro.trace.Max(); peak > r.PeakQueued {
				r.PeakQueued = peak
			}
			if ro.heatmap != nil {
				r.Heatmap = ro.heatmap
			}
		}
		r.Steps = metrics.Summarize(steps)
		out[mi] = r
	}
	return out, nil
}

// RenderFigure5 formats the unfolding results: per mapper, an ASCII plot of
// the first trace, the peak occupancy, and the node activity heatmap.
func RenderFigure5(results []Figure5Result) string {
	var b strings.Builder
	b.WriteString("Figure 5: temporal and spatial unfolding (196-core 2D torus)\n")
	for _, r := range results {
		fmt.Fprintf(&b, "\n── %s ──\n", r.Mapper)
		fmt.Fprintf(&b, "steps: mean %.1f (min %.0f, max %.0f), peak queued messages: %d\n",
			r.Steps.Mean, r.Steps.Min, r.Steps.Max, r.PeakQueued)
		if len(r.Traces) > 0 {
			b.WriteString("interconnect activity (queued messages vs time, problem 0):\n")
			b.WriteString(metrics.AsciiPlot(r.Traces[0], 64, 12))
		}
		if r.Heatmap != nil {
			fmt.Fprintf(&b, "node activity heatmap (imbalance CV %.2f):\n", r.Heatmap.ImbalanceCV())
			b.WriteString(r.Heatmap.Render())
		}
	}
	return b.String()
}

// Figure5CSV renders every trace as long-form CSV (mapper,problem,step,queued).
func Figure5CSV(results []Figure5Result) string {
	var b strings.Builder
	b.WriteString("mapper,problem,step,queued\n")
	for _, r := range results {
		for p, tr := range r.Traces {
			for step, q := range tr {
				fmt.Fprintf(&b, "%q,%d,%d,%d\n", r.Mapper, p, step, q)
			}
		}
	}
	return b.String()
}
