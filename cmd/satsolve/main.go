// Command satsolve decides the satisfiability of a DIMACS CNF instance,
// either with the sequential DPLL baseline or distributed across a simulated
// hyperspace computer (the paper's Listing 4 solver on the full five-layer
// stack).
//
// Usage:
//
//	satsolve instance.cnf                          # sequential DPLL
//	satsolve -mesh torus:14x14 -mapper lbn x.cnf   # distributed solve
//	satsolve -heuristic jw -stats x.cnf
//
// Exit status: 10 for SAT, 20 for UNSAT (the SAT-competition convention),
// 1 on error.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"

	hypersolve "hypersolve"
	"hypersolve/internal/sat"
	"hypersolve/internal/service"
)

func main() {
	status, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "satsolve:", err)
	}
	os.Exit(exitCode(status))
}

// exitCode follows the SAT-competition convention; run reports every error
// with an Unknown status.
func exitCode(s sat.Status) int {
	switch s {
	case sat.SAT:
		return 10
	case sat.UNSAT:
		return 20
	default:
		return 1
	}
}

func run(args []string, w io.Writer) (sat.Status, error) {
	fs := flag.NewFlagSet("satsolve", flag.ExitOnError)
	var (
		meshSpec   = fs.String("mesh", "", "solve on a simulated machine, e.g. torus:14x14 (default: sequential)")
		mapperSpec = fs.String("mapper", "lbn", "mapper for -mesh runs")
		heuristic  = fs.String("heuristic", "first", "branching heuristic: first, freq, jw, dlis")
		stats      = fs.Bool("stats", false, "print search statistics")
		model      = fs.Bool("assignment", false, "print the satisfying assignment")
	)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return sat.Unknown, fmt.Errorf("usage: satsolve [flags] instance.cnf")
	}
	text, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return sat.Unknown, err
	}
	formula, err := sat.ParseDIMACS(bytes.NewReader(text))
	if err != nil {
		return sat.Unknown, err
	}

	var status sat.Status
	var assignment sat.Assignment
	if *meshSpec == "" {
		h, err := sat.ParseHeuristic(*heuristic)
		if err != nil {
			return sat.Unknown, err
		}
		res := sat.Solve(formula, sat.Options{Heuristic: h})
		status, assignment = res.Status, res.Assignment
		if *stats {
			fmt.Fprintf(w, "c calls=%d decisions=%d unit_props=%d pure_assigns=%d\n",
				res.Calls, res.Decisions, res.UnitProps, res.PureAssigns)
		}
	} else {
		c, err := service.JobSpec{Kind: "sat", CNF: string(text), Heuristic: *heuristic,
			Topology: *meshSpec, Mapper: *mapperSpec}.Compile()
		if err != nil {
			return sat.Unknown, err
		}
		res, err := hypersolve.Run(c.Config, c.Arg)
		if err != nil {
			return sat.Unknown, err
		}
		if !res.OK {
			return sat.Unknown, fmt.Errorf("simulation did not complete")
		}
		out := res.Value.(sat.Outcome)
		status, assignment = out.Status, out.Assignment
		if *stats {
			fmt.Fprintf(w, "c steps=%d messages=%d cores=%d\n",
				res.ComputationTime, res.Stats.TotalSent, c.Config.Topology.Size())
		}
	}

	if status == sat.SAT && !sat.Verify(formula, assignment) {
		return sat.Unknown, fmt.Errorf("internal error: SAT claimed but assignment invalid")
	}
	fmt.Fprintln(w, "s", satCompetitionName(status))
	if *model && status == sat.SAT {
		fmt.Fprint(w, "v ")
		for v := 1; v <= formula.NumVars; v++ {
			lit := v
			if assignment.Value(v) != 1 {
				lit = -v
			}
			fmt.Fprint(w, lit, " ")
		}
		fmt.Fprintln(w, "0")
	}
	return status, nil
}

func satCompetitionName(s sat.Status) string {
	switch s {
	case sat.SAT:
		return "SATISFIABLE"
	case sat.UNSAT:
		return "UNSATISFIABLE"
	default:
		return "UNKNOWN"
	}
}
