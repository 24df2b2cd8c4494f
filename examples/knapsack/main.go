// Knapsack example: fork-join branch and bound with cross-layer hints. Each
// subcall carries the sub-problem's remaining item count as a mapping hint;
// the weighted mapper adds the hints of the work it sent a neighbour to that
// neighbour's last heard load (the paper's Section III-B3 cross-layer
// optimization), while the plain mappers ignore them. On this instance the
// hints do not pay: round-robin finishes first (512 steps, against 584 and
// 783 for weighted alpha 1 and 4). Every result is validated against a
// dynamic-programming oracle.
//
//	go run ./examples/knapsack
package main

import (
	"fmt"
	"log"
	"math/rand"

	hypersolve "hypersolve"
)

func main() {
	// A deterministic 16-item instance.
	rng := rand.New(rand.NewSource(7))
	items := make([]hypersolve.KnapsackItem, 16)
	capacity := 0
	for i := range items {
		items[i] = hypersolve.KnapsackItem{
			Weight: 1 + rng.Intn(25),
			Value:  1 + rng.Intn(50),
		}
		capacity += items[i].Weight
	}
	capacity /= 2
	oracle := hypersolve.KnapsackDP(items, capacity)
	fmt.Printf("16 items, capacity %d; optimal value (DP oracle): %d\n\n", capacity, oracle)

	for _, m := range []struct {
		name   string
		mapper hypersolve.MapperFactory
	}{
		{"round-robin (hints ignored)", hypersolve.RoundRobinMapper()},
		{"least-busy (hints ignored)", hypersolve.LeastBusyMapper()},
		{"weighted alpha=1 (hint-aware)", hypersolve.WeightedMapper(1)},
		{"weighted alpha=4 (hint-aware)", hypersolve.WeightedMapper(4)},
	} {
		res, err := hypersolve.Run(hypersolve.Config{
			Topology: hypersolve.MustTorus(8, 8),
			Mapper:   m.mapper,
			Task:     hypersolve.KnapsackTask(4),
		}, hypersolve.NewKnapsack(items, capacity))
		if err != nil {
			log.Fatal(err)
		}
		if !res.OK {
			log.Fatal("simulation did not complete")
		}
		status := "ok"
		if res.Value.(int) != oracle {
			status = "SUBOPTIMAL"
		}
		fmt.Printf("%-30s value %d in %4d steps, %6d messages  [%s]\n",
			m.name, res.Value, res.ComputationTime, res.Stats.TotalSent, status)
	}
}
