// SAT solver example: the paper's evaluation workload end to end. Generates
// a satisfiable uniform random 3-SAT instance (SATLIB uf20-91 style), solves
// it with the distributed DPLL solver of the paper's Listing 4 on a 196-core
// 2D torus under both mapping algorithms, verifies the assignments, and
// shows how mapping affects the spatial unfolding (Figure 5's heatmap).
//
//	go run ./examples/satsolver
package main

import (
	"fmt"
	"log"
	"strings"

	hypersolve "hypersolve"
)

func main() {
	// One satisfiable uf20-91 instance from a fixed seed.
	suite, err := hypersolve.GenerateSATSuite(hypersolve.UF20Params(42))
	if err != nil {
		log.Fatal(err)
	}
	formula := suite[0]
	fmt.Printf("instance: %d variables, %d clauses (uniform random 3-SAT)\n",
		formula.NumVars, len(formula.Clauses))

	// Sequential baseline for reference.
	seq := hypersolve.SolveSAT(formula, hypersolve.SATOptions{})
	fmt.Printf("sequential DPLL: %v in %d calls\n\n", seq.Status, seq.Calls)

	for _, m := range []struct {
		name   string
		mapper hypersolve.MapperFactory
	}{
		{"round-robin (static)", hypersolve.RoundRobinMapper()},
		{"least-busy-neighbour (adaptive)", hypersolve.LeastBusyMapper()},
	} {
		machine, err := hypersolve.NewMachine(hypersolve.Config{
			Topology:     hypersolve.MustTorus(14, 14),
			Mapper:       m.mapper,
			Task:         hypersolve.SATTask(hypersolve.HeuristicFirst),
			RecordSeries: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		res, err := machine.Run(hypersolve.NewSATProblem(formula))
		if err != nil {
			log.Fatal(err)
		}
		if !res.OK {
			log.Fatal("simulation did not complete")
		}
		out := res.Value.(hypersolve.SATOutcome)
		verified := out.Status == hypersolve.StatusSAT &&
			hypersolve.VerifySAT(formula, out.Assignment)

		fmt.Printf("── %s ──\n", m.name)
		fmt.Printf("verdict: %v (verified: %v)\n", out.Status, verified)
		fmt.Printf("computation time: %d steps, messages: %d\n",
			res.ComputationTime, res.Stats.TotalSent)
		hm := machine.NodeHeatmap(res)
		fmt.Printf("node activity (load imbalance CV %.2f):\n", hm.ImbalanceCV())
		// Each row is framed so that idle cells at its end stay visible.
		for _, row := range strings.Split(strings.TrimSuffix(hm.Render(), "\n"), "\n") {
			fmt.Printf("|%s|\n", row)
		}
		fmt.Println()
	}
}
