package service

import (
	"strings"
	"testing"
)

// TestCompileAdmissionBounds walks each admission bound from both sides: the
// largest spec Compile accepts and the smallest it refuses — and refuses
// before building anything, so the oversized rows cost nothing to run.
func TestCompileAdmissionBounds(t *testing.T) {
	cases := []struct {
		spec   JobSpec
		refuse string // substring of the error; empty: accepted
	}{
		{JobSpec{Kind: "sat", N: 10_000, Topology: "ring:4"}, ""},
		{JobSpec{Kind: "sat", N: 10_001, Topology: "ring:4"}, "at most n = 10000"},
		{JobSpec{Kind: "sat", N: 1_000_000_000}, "at most n = 10000"},
		{JobSpec{Kind: "sat", N: 1_000_000_000, CNF: "p cnf 1 1\n1 0\n"}, ""}, // n is ignored beside a formula
		{JobSpec{Kind: "sat", CNF: "p cnf 1048576 1\n1048576 -1 0\n", Topology: "ring:4"}, ""},
		{JobSpec{Kind: "sat", CNF: "p cnf 1048577 0\n"}, "at most 1048576"},
		{JobSpec{Kind: "sat", CNF: "p cnf 50000000 0\n"}, "at most 1048576"},
		{JobSpec{Kind: "sat", CNF: "p cnf 2147483647 0\n"}, "at most 1048576"},
		{JobSpec{Kind: "knapsack", N: 10_000, Topology: "ring:4"}, ""},
		{JobSpec{Kind: "knapsack", N: 10_001}, "0 < n <= 10000"},
		{JobSpec{Kind: "queens", N: 127, Topology: "ring:4"}, ""},
		{JobSpec{Kind: "queens", N: 128}, "0 < n <= 127"},
		{JobSpec{Kind: "sum", N: 1_000_000_000, Topology: "ring:4"}, ""}, // an argument, not an instance size

		{JobSpec{Kind: "fib", N: 5, Topology: "torus:14x14", ProcsPerNode: 8}, ""},
		{JobSpec{Kind: "fib", N: 5, Topology: "full:256", ProcsPerNode: 2}, ""},
		{JobSpec{Kind: "fib", N: 5, Topology: "hypercube:12"}, ""},
		{JobSpec{Kind: "fib", N: 5, Topology: "torus:100000x100000"}, "exceeds 1048576 processes"},
		{JobSpec{Kind: "fib", N: 5, Topology: "torus:1025x1024"}, "exceeds 1048576 processes"},
		{JobSpec{Kind: "fib", N: 5, Topology: "star:1000000000"}, "exceeds 1048576 processes"},
		{JobSpec{Kind: "fib", N: 5, Topology: "hypercube:21"}, "exceeds 1048576 processes"},
		{JobSpec{Kind: "fib", N: 5, Topology: "torus:4x4", ProcsPerNode: 1_000_000_000}, "exceeds 1048576 processes"},
		{JobSpec{Kind: "fib", N: 5, Topology: "torus:512x512", ProcsPerNode: 8}, "exceeds 1048576 processes"},
		{JobSpec{Kind: "fib", N: 5, Topology: "full:16384"}, "exceeds 8388608 process-level links"},
		{JobSpec{Kind: "fib", N: 5, Topology: "full:2897"}, "exceeds 8388608 process-level links"},
		{JobSpec{Kind: "fib", N: 5, Topology: "full:256", ProcsPerNode: 16}, "exceeds 8388608 process-level links"},
	}
	for _, tc := range cases {
		_, err := tc.spec.Compile()
		switch {
		case tc.refuse == "" && err != nil:
			t.Errorf("Compile(%+v) = %v, want it accepted", tc.spec, err)
		case tc.refuse != "" && (err == nil || !strings.Contains(err.Error(), tc.refuse)):
			t.Errorf("Compile(%+v) = %v, want an error containing %q", tc.spec, err, tc.refuse)
		}
	}
}
