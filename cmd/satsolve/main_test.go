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

// A file declaring more variables than the parser's bound fails with the
// parser's error on either path, before anything is allocated for them.
func TestDeclaredVarsBound(t *testing.T) {
	path := filepath.Join(t.TempDir(), "huge.cnf")
	if err := os.WriteFile(path, []byte("p cnf 2147483647 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{path}, {"-mesh", "torus:6x6", path}} {
		var out bytes.Buffer
		_, err := run(args, &out)
		if err == nil || !strings.Contains(err.Error(), "declares 2147483647 variables, at most 1048576") {
			t.Errorf("satsolve %v: err %v, want the parser's bound", args, err)
		}
		if out.Len() != 0 {
			t.Errorf("satsolve %v printed %q", args, out.Bytes())
		}
	}
}
