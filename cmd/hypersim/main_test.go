package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGolden replays fixed command lines and compares stdout byte for byte
// with testdata/<name>.golden, captured from the binary of the commit before
// hypersim was rewired onto service.JobSpec.Compile. Never regenerate the
// files from current code: a difference means the rewire changed behaviour.
func TestGolden(t *testing.T) {
	cases := map[string]string{
		"sat":        "-topo torus:6x6 -task sat",
		"sum":        "-topo torus:6x6 -task sum -n 30",
		"fib":        "-topo torus:6x6 -task fib -n 12",
		"queens":     "-topo torus:6x6 -task queens -n 6",
		"knapsack":   "-topo torus:6x6 -task knapsack -n 10 -seed 3",
		"replicates": "-topo torus:6x6 -mapper ideal -task sat -runs 3 -series -heatmap",
		"ideal":      "-topo full:16 -mapper ideal -task fib -n 9 -runs 2",
		"cnf":        "-topo torus:6x6 -task sat -cnf testdata/uf20.cnf -heuristic jw",
		"extras":     "-topo torus:6x6 -mapper lbn -task sat -n 24 -seed 5 -procs 2 -link-queues -series -heatmap -max-steps 100000",
	}
	for name, args := range cases {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := run(strings.Fields(args), &got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("hypersim %s\ngot:\n%s\nwant:\n%s", args, got.Bytes(), want)
			}
		})
	}
}
