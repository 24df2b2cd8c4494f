package sat

import (
	"strings"
	"testing"
)

// TestDIMACSSATLIBQuirks pins the parser's tolerance for the formatting of
// real SATLIB benchmark files: the "%\n0\n" end-of-file trailer, a final
// clause missing its terminating 0, and the hard error on a clause count
// that disagrees with the problem line.
func TestDIMACSSATLIBQuirks(t *testing.T) {
	t.Run("satlib trailer", func(t *testing.T) {
		// The exact shape of a SATLIB uf files' tail: declared clause
		// count, the clauses, then a lone '%' line and a lone '0' line.
		// Before the '%'-terminates-input rule, the trailing 0 was parsed
		// as an empty clause and the file was rejected for a clause-count
		// mismatch.
		src := "c uf3-3 style\np cnf 3 3\n1 -2 0\n-1 3 0\n2 -3 0\n%\n0\n"
		f, err := ParseDIMACS(strings.NewReader(src))
		if err != nil {
			t.Fatalf("SATLIB trailer rejected: %v", err)
		}
		if f.NumVars != 3 || len(f.Clauses) != 3 {
			t.Fatalf("parsed %d vars %d clauses, want 3 and 3", f.NumVars, len(f.Clauses))
		}
		// Everything after the marker is padding, even if it looks like CNF.
		src2 := "p cnf 2 1\n1 2 0\n%\n0\n-1 -2 0\n"
		f2, err := ParseDIMACS(strings.NewReader(src2))
		if err != nil {
			t.Fatal(err)
		}
		if len(f2.Clauses) != 1 {
			t.Fatalf("clauses after the %% marker were parsed: %v", f2.Clauses)
		}
	})

	t.Run("unterminated final clause", func(t *testing.T) {
		src := "p cnf 3 2\n1 -2 0\n2 3"
		f, err := ParseDIMACS(strings.NewReader(src))
		if err != nil {
			t.Fatalf("unterminated final clause rejected: %v", err)
		}
		if len(f.Clauses) != 2 || len(f.Clauses[1]) != 2 {
			t.Fatalf("final clause parsed as %v", f.Clauses)
		}
		if f.Clauses[1][0] != 2 || f.Clauses[1][1] != 3 {
			t.Fatalf("final clause literals = %v, want [2 3]", f.Clauses[1])
		}
	})

	t.Run("clause count mismatch", func(t *testing.T) {
		for _, src := range []string{
			"p cnf 3 3\n1 -2 0\n2 3 0\n",       // fewer than declared
			"p cnf 3 1\n1 -2 0\n2 3 0\n",       // more than declared
			"p cnf 3 3\n1 -2 0\n2 3 0\n%\n0\n", // trailer doesn't pad a short file
			"p cnf 3 1\n1 -2 0\n2 3",           // unterminated clause still counts
		} {
			if _, err := ParseDIMACS(strings.NewReader(src)); err == nil ||
				!strings.Contains(err.Error(), "clauses") {
				t.Errorf("ParseDIMACS(%q) = %v, want clause-count error", src, err)
			}
		}
	})
}

// Literals are 32-bit: a token that does not fit must not wrap around into
// some other literal, and the one value whose negation overflows must not
// slip past the variable-range check. Both used to reach the solver.
func TestDIMACSLiteralRange(t *testing.T) {
	for _, tc := range []struct{ name, src, want string }{
		{"wraps to literal 1", "p cnf 3 1\n4294967297 2 0\n", `line 2: bad literal "4294967297"`},
		{"most negative int32", "p cnf 3 1\n-2147483648 2 0\n", "line 2: literal -2147483648 references a variable beyond the declared 3"},
		{"largest int32", "p cnf 3 2\n1 0\n2147483647 0\n", "line 3: literal 2147483647 references"},
		{"beyond int64", "p cnf 3 1\n-99999999999999999999 0\n", "line 2: bad literal"},
	} {
		_, err := ParseDIMACS(strings.NewReader(tc.src))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: ParseDIMACS(%q) = %v, want an error containing %q", tc.name, tc.src, err, tc.want)
		}
	}
	f := Formula{NumVars: 3, Clauses: []Clause{{-2147483648, 2}}}
	if err := f.Validate(); err == nil {
		t.Error("Validate accepted the most negative literal")
	}
}

// A problem line is refused above MaxDeclaredVars: every declared variable
// costs memory in each Problem, whether or not a clause mentions it.
func TestDIMACSDeclaredVarsBound(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{"p cnf 1048576 1\n1048576 -1 0\n", ""},
		{"p cnf 1048577 0\n", "line 1: problem line declares 1048577 variables, at most 1048576"},
		{"c big\np cnf 2147483647 0\n", "line 2: problem line declares 2147483647 variables, at most 1048576"},
	} {
		f, err := ParseDIMACS(strings.NewReader(tc.src))
		if tc.want == "" {
			if err != nil || f.NumVars != MaxDeclaredVars {
				t.Errorf("ParseDIMACS(%q) = %d variables, %v; want %d accepted", tc.src, f.NumVars, err, MaxDeclaredVars)
			}
		} else if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseDIMACS(%q) = %v, want an error containing %q", tc.src, err, tc.want)
		}
	}
}
