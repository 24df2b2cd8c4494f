// Command hypersim runs one workload on a simulated hyperspace computer and
// reports the paper's metrics: computation time, message counts, and
// optionally the interconnect-activity trace and node-activity heatmap.
//
// Usage examples:
//
//	hypersim -topo torus:14x14 -mapper lbn -task sum -n 100
//	hypersim -topo torus:6x6x6 -mapper rr -task queens -n 7
//	hypersim -topo hypercube:7 -mapper weighted:2 -task knapsack -n 14
//	hypersim -topo torus:14x14 -mapper lbn -task sat -seed 7 -series -heatmap
//	hypersim -topo full:256 -mapper ideal -task sat -cnf problem.cnf
//	hypersim -topo torus:14x14 -mapper lbn -task sat -runs 8
//
// -runs fans its replicates out over GOMAXPROCS workers; the output is the
// same at every width.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	hypersolve "hypersolve"
	"hypersolve/internal/apps"
	"hypersolve/internal/metrics"
	"hypersolve/internal/sat"
	"hypersolve/internal/service"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hypersim:", err)
		os.Exit(1)
	}
}

// An oracle renders a distributed result beside the workload's sequential
// answer; a kind without one prints the bare value.
type oracle func(spec service.JobSpec, c service.Compiled, v hypersolve.Value) string

var oracles = map[string]oracle{
	"sum": func(spec service.JobSpec, _ service.Compiled, v hypersolve.Value) string {
		return fmt.Sprintf("sum(%d) = %v (want %d)", spec.N, v, spec.N*(spec.N+1)/2)
	},
	"queens": func(spec service.JobSpec, _ service.Compiled, v hypersolve.Value) string {
		return fmt.Sprintf("queens(%d) = %v solutions (sequential: %d)", spec.N, v, hypersolve.QueensSeq(spec.N))
	},
	"knapsack": func(spec service.JobSpec, c service.Compiled, v hypersolve.Value) string {
		root := c.Arg.(apps.KnapsackProblem)
		return fmt.Sprintf("knapsack(%d items, cap %d) = %v (DP oracle: %d)",
			spec.N, root.Capacity, v, hypersolve.KnapsackDP(root.Items, root.Capacity))
	},
	"sat":    satOracle,
	"dimacs": satOracle,
}

func satOracle(spec service.JobSpec, c service.Compiled, v hypersolve.Value) string {
	out := v.(hypersolve.SATOutcome)
	verdict := out.Status.String()
	if out.Status == hypersolve.StatusSAT {
		if hypersolve.VerifySAT(*c.Formula, out.Assignment) {
			verdict += " (assignment verified)"
		} else {
			verdict += " (ASSIGNMENT INVALID)"
		}
	}
	h, _ := sat.ParseHeuristic(spec.Heuristic) // Compile accepted it
	seq := hypersolve.SolveSAT(*c.Formula, sat.Options{Heuristic: h})
	return fmt.Sprintf("distributed: %s | sequential baseline: %s", verdict, seq.Status)
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("hypersim", flag.ExitOnError)
	var spec service.JobSpec
	fs.StringVar(&spec.Topology, "topo", "torus:14x14", "topology spec: torus:AxB[xC], grid:AxB, hypercube:N, full:N, ring:N, star:N")
	fs.StringVar(&spec.Mapper, "mapper", "rr", "mapper spec: rr, rr-stagger, lbn, random, weighted[:alpha], ideal")
	fs.StringVar(&spec.Kind, "task", "sat", "workload: sat, sum, fib, queens, knapsack")
	fs.IntVar(&spec.N, "n", 20, "task parameter (sum/fib argument, queens board size, knapsack items, sat variables)")
	cnf := fs.String("cnf", "", "DIMACS file for -task sat (overrides the generated instance)")
	fs.StringVar(&spec.Heuristic, "heuristic", "first", "sat branching heuristic: first, freq, jw, dlis")
	fs.IntVar(&spec.ProcsPerNode, "procs", 1, "logical processes per core (layer 2)")
	fs.Int64Var(&spec.Seed, "seed", 1, "random seed")
	fs.Int64Var(&spec.MaxSteps, "max-steps", 0, "abort after this many steps (0 = default)")
	fs.BoolVar(&spec.RecordSeries, "series", false, "print the interconnect activity trace")
	heatmap := fs.Bool("heatmap", false, "print the node activity heatmap")
	linkQueues := fs.Bool("link-queues", false, "use per-link queues instead of per-node queues")
	runs := fs.Int("runs", 1, "replicate the run this many times with seeds seed..seed+runs-1 and report a summary")
	fs.Parse(args)

	if *cnf != "" {
		text, err := os.ReadFile(*cnf)
		if err != nil {
			return err
		}
		if spec.CNF = string(text); spec.CNF == "" {
			return fmt.Errorf("%s: empty DIMACS file", *cnf)
		}
	}
	if *linkQueues {
		spec.Link.QueueModel = "link"
	}
	c, err := spec.Compile()
	if err != nil {
		return err
	}
	check := func(v hypersolve.Value) string {
		if o := oracles[strings.ToLower(spec.Kind)]; o != nil {
			return o(spec, c, v)
		}
		return fmt.Sprintf("%s(%d) = %v", spec.Kind, spec.N, v)
	}
	cfg := c.Config
	if *runs > 1 {
		return runReplicates(w, cfg, spec, c.Arg, check, *runs, *heatmap)
	}
	machine, err := hypersolve.NewMachine(cfg)
	if err != nil {
		return err
	}
	res, err := machine.Run(c.Arg)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "machine: %s (%d cores), mapper %s, task %s\n", cfg.Topology.Name(), cfg.Topology.Size(), spec.Mapper, spec.Kind)
	if !res.OK {
		fmt.Fprintln(w, "run did NOT complete (MaxSteps exceeded)")
	} else {
		fmt.Fprintln(w, check(res.Value))
	}
	fmt.Fprintf(w, "computation time: %d steps (performance %.6f)\n", res.ComputationTime, res.Performance)
	fmt.Fprintf(w, "messages: sent %d, delivered %d\n", res.Stats.TotalSent, res.Stats.TotalDelivered)
	var frames int64
	for _, f := range res.FramesPerProcess {
		frames += f
	}
	fmt.Fprintf(w, "task frames evaluated: %d\n", frames)
	if spec.RecordSeries {
		fmt.Fprintln(w, "\ninterconnect activity (queued messages vs time):")
		fmt.Fprint(w, metrics.AsciiPlot(res.QueuedSeries, 64, 12))
	}
	if *heatmap {
		hm := machine.NodeHeatmap(res)
		fmt.Fprintf(w, "\nnode activity heatmap (imbalance CV %.2f):\n", hm.ImbalanceCV())
		fmt.Fprint(w, hm.Render())
	}
	return nil
}

// runReplicates executes the same workload runs times with seeds
// cfg.Seed..cfg.Seed+runs-1, fanned out over GOMAXPROCS workers, and reports
// per-run computation times plus a summary; results are identical at every
// width. The -series and -heatmap flags apply to run 0.
func runReplicates(w io.Writer, cfg hypersolve.Config, spec service.JobSpec, arg hypersolve.Value, check func(hypersolve.Value) string, runs int, heatmap bool) error {
	baseSeed := cfg.Seed
	args := make([]hypersolve.Value, runs)
	for i := range args {
		args[i] = arg
	}
	results, err := hypersolve.RunSuite(cfg, args)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "machine: %s (%d cores), mapper %s, task %s, %d runs\n",
		cfg.Topology.Name(), cfg.Topology.Size(), spec.Mapper, spec.Kind, runs)
	steps := make([]float64, 0, runs)
	for i, res := range results {
		if !res.OK {
			fmt.Fprintf(w, "run %2d (seed %d): did NOT complete (MaxSteps exceeded)\n", i, baseSeed+int64(i))
			continue
		}
		fmt.Fprintf(w, "run %2d (seed %d): %d steps | %s\n", i, baseSeed+int64(i), res.ComputationTime, check(res.Value))
		steps = append(steps, float64(res.ComputationTime))
	}
	if len(steps) > 0 {
		sum := metrics.Summarize(steps)
		fmt.Fprintf(w, "computation time over %d completed runs: mean %.1f steps (std %.1f, min %.0f, max %.0f)\n",
			len(steps), sum.Mean, sum.Std, sum.Min, sum.Max)
	}
	if spec.RecordSeries {
		fmt.Fprintln(w, "\ninterconnect activity of run 0 (queued messages vs time):")
		fmt.Fprint(w, metrics.AsciiPlot(results[0].QueuedSeries, 64, 12))
	}
	if heatmap {
		// NodeHeatmap only folds per-process counts onto the topology, so a
		// machine built from the same config renders run 0's result.
		machine, err := hypersolve.NewMachine(cfg)
		if err != nil {
			return err
		}
		hm := machine.NodeHeatmap(results[0])
		fmt.Fprintf(w, "\nnode activity heatmap of run 0 (imbalance CV %.2f):\n", hm.ImbalanceCV())
		fmt.Fprint(w, hm.Render())
	}
	return nil
}
