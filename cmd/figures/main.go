// Command figures regenerates the evaluation artifacts of Tarawneh et al.
// (P2S2 2017): Figure 4 (SAT solver scalability across topologies and
// mapping algorithms) and Figure 5 (temporal and spatial unfolding on a
// 196-core 2D torus).
//
// Usage:
//
//	figures -fig 4                 # full Figure 4 sweep (20 instances)
//	figures -fig 4 -quick          # reduced sweep for a fast smoke run
//	figures -fig 5                 # Figure 5 traces and heatmaps
//	figures -fig 4 -csv            # machine-readable output
//	figures -fig 4 -seed 7         # different benchmark suite
//
// Simulations fan out over GOMAXPROCS workers (GOMAXPROCS=8 figures ...
// runs eight at a time). The width only changes wall-clock time: sweep
// results are bit-identical at every width (deterministic per-point seeds,
// collection by point index).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"hypersolve/internal/experiments"
)

func main() {
	var (
		fig   = flag.Int("fig", 4, "figure to regenerate: 4 or 5")
		quick = flag.Bool("quick", false, "reduced workload and sizes for a fast run")
		csv   = flag.Bool("csv", false, "emit CSV instead of a text rendering")
		seed  = flag.Int64("seed", 1, "benchmark suite seed")
		side  = flag.Int("side", 14, "figure 5 torus side (14 = paper's 196 cores)")
	)
	flag.Parse()

	start := time.Now()
	var err error
	switch *fig {
	case 4:
		err = runFigure4(*quick, *csv, *seed)
	case 5:
		err = runFigure5(*quick, *csv, *seed, *side)
	default:
		err = fmt.Errorf("unknown figure %d (want 4 or 5)", *fig)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "elapsed: %v\n", time.Since(start).Round(time.Millisecond))
}

func runFigure4(quick, csv bool, seed int64) error {
	var cfg experiments.Figure4Config
	var err error
	if quick {
		w, werr := experiments.SmallWorkload(seed, 5)
		if werr != nil {
			return werr
		}
		cfg = experiments.Figure4Config{
			Workload: w,
			Series: experiments.DefaultFigure4Series(
				[]int{16, 64, 196},
				[]int{27, 125},
				[]int{16, 196},
			),
			Seed: seed,
		}
	} else {
		cfg, err = experiments.DefaultFigure4Config(seed)
		if err != nil {
			return err
		}
	}
	points, err := experiments.Figure4(cfg)
	if err != nil {
		return err
	}
	if csv {
		fmt.Print(experiments.Figure4CSV(points))
	} else {
		fmt.Print(experiments.RenderFigure4(points))
	}
	return nil
}

func runFigure5(quick, csv bool, seed int64, side int) error {
	var w experiments.Workload
	var err error
	if quick {
		w, err = experiments.SmallWorkload(seed, 3)
	} else {
		w, err = experiments.DefaultWorkload(seed)
	}
	if err != nil {
		return err
	}
	results, err := experiments.Figure5(experiments.Figure5Config{
		Workload: w,
		Side:     side,
		Seed:     seed,
	})
	if err != nil {
		return err
	}
	if csv {
		fmt.Print(experiments.Figure5CSV(results))
	} else {
		fmt.Print(experiments.RenderFigure5(results))
	}
	return nil
}
