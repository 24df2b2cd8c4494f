package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGolden replays fixed command lines and compares stdout plus the exit
// status byte for byte with testdata/<name>.golden, captured from the binary
// of the commit before -mesh was rewired onto service.JobSpec.Compile. Never
// regenerate the files from current code.
func TestGolden(t *testing.T) {
	cases := map[string]string{
		"seq":        "testdata/uf20.cnf",
		"seq-stats":  "-heuristic jw -stats -assignment testdata/uf20.cnf",
		"seq-unsat":  "-stats testdata/unsat.cnf",
		"mesh":       "-mesh torus:6x6 testdata/uf20.cnf",
		"mesh-stats": "-mesh torus:6x6 -mapper rr -heuristic jw -stats -assignment testdata/uf20.cnf",
		"mesh-unsat": "-mesh torus:6x6 -stats testdata/unsat.cnf",
	}
	for name, args := range cases {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			status, err := run(strings.Fields(args), &got)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "exit status %d\n", exitCode(status))
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("satsolve %s\ngot:\n%s\nwant:\n%s", args, got.Bytes(), want)
			}
		})
	}
}
