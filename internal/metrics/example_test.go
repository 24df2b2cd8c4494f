package metrics_test

import (
	"fmt"

	"hypersolve/internal/metrics"
)

// A simulation run hands back its interconnect activity as a Series and its
// per-node load as a Heatmap; both summarise and render without leaving the
// terminal. The same values marshal to JSON inside a job result, so what a
// local run prints is what an API client receives.
func Example() {
	activity := metrics.Series{0, 3, 9, 14, 9, 4, 1, 0}
	fmt.Println("peak:", activity.Max())

	sum := metrics.Summarize([]float64{1.0, 2.0, 4.0})
	fmt.Printf("mean: %.2f median: %.1f\n", sum.Mean, sum.Median)

	load := metrics.NewHeatmap(2, 2)
	load.Add(0, 0, 6)
	load.Add(1, 1, 2)
	fmt.Printf("imbalance CV: %.2f\n", load.ImbalanceCV())
	// Output:
	// peak: 14
	// mean: 2.33 median: 2.0
	// imbalance CV: 1.41
}
