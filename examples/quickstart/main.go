// Quickstart: the paper's Listing 3 — sum(n) = n + sum(n-1) — written as a
// plain recursive Go function and executed across a simulated 196-core 2D
// torus, with every subcall delegated to another core by the mapping layer.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	hypersolve "hypersolve"
)

func main() {
	// The recursive function (layer 5). A Frame is the paper's yield
	// interface: Call delegates a subcall to another node, Sync collects
	// the results.
	sum := func(f *hypersolve.Frame, arg hypersolve.Value) hypersolve.Value {
		n := arg.(int)
		if n < 1 {
			return 0 // paper: yield Result(0)
		}
		total := f.CallSync(n - 1).(int) // paper: yield Call(n-1); Sync()
		return total + n                 // paper: yield Result(total + n)
	}

	// Assemble the machine: a 14x14 torus (the paper's 196-core machine)
	// with least-busy-neighbour mapping.
	res, err := hypersolve.Run(hypersolve.Config{
		Topology:     hypersolve.MustTorus(14, 14),
		Mapper:       hypersolve.LeastBusyMapper(),
		Task:         sum,
		RecordSeries: true,
	}, 100)
	if err != nil {
		log.Fatal(err)
	}
	if !res.OK {
		log.Fatal("simulation did not complete")
	}

	fmt.Printf("sum(100) = %v (expected %d)\n", res.Value, 100*101/2)
	fmt.Printf("computation time: %d simulation steps\n", res.ComputationTime)
	fmt.Printf("messages exchanged: %d\n", res.Stats.TotalSent)

	// Each of the 101 calls ran on a core chosen by the mapping layer; the
	// caller's core parked its frame (on a pooled coroutine) until the
	// reply arrived.
	busy := 0
	for _, frames := range res.FramesPerProcess {
		if frames > 0 {
			busy++
		}
	}
	fmt.Printf("cores that evaluated at least one call: %d / %d\n", busy, 196)
}
