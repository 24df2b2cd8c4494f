package sat

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// MaxDeclaredVars bounds the variable count a problem line may declare:
// NewProblem's index takes 8 bytes per variable and every branch of the
// search an assignment byte per variable, whether or not a clause mentions
// it, so a 20-byte file must not be able to ask for gigabytes.
const MaxDeclaredVars = 1 << 20

// ParseDIMACS reads a CNF formula in DIMACS format: comment lines start
// with 'c', the problem line is "p cnf <vars> <clauses>", and each clause
// is a whitespace-separated list of literals terminated by 0 (possibly
// spanning lines).
//
// The parser tolerates the quirks of SATLIB benchmark files: a '%' line
// ends the input (SATLIB files append a "%\n0\n" trailer after the last
// clause), and a final clause without its terminating 0 is accepted. A
// clause count that disagrees with the problem line is an error, and so is
// a variable count above MaxDeclaredVars.
func ParseDIMACS(r io.Reader) (Formula, error) {
	var f Formula
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	sawProblem := false
	declaredClauses := -1
	var current Clause
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "c") {
			continue
		}
		if strings.HasPrefix(line, "%") {
			// SATLIB end-of-file marker: the customary lone "0" line (and
			// anything else) after it is padding, not CNF.
			break
		}
		if strings.HasPrefix(line, "p") {
			if sawProblem {
				return f, fmt.Errorf("dimacs: line %d: duplicate problem line", lineNo)
			}
			fields := strings.Fields(line)
			if len(fields) != 4 || fields[1] != "cnf" {
				return f, fmt.Errorf("dimacs: line %d: malformed problem line %q", lineNo, line)
			}
			nv, err := strconv.Atoi(fields[2])
			if err != nil || nv < 0 {
				return f, fmt.Errorf("dimacs: line %d: bad variable count %q", lineNo, fields[2])
			}
			if nv > MaxDeclaredVars {
				return f, fmt.Errorf("dimacs: line %d: problem line declares %d variables, at most %d", lineNo, nv, MaxDeclaredVars)
			}
			nc, err := strconv.Atoi(fields[3])
			if err != nil || nc < 0 {
				return f, fmt.Errorf("dimacs: line %d: bad clause count %q", lineNo, fields[3])
			}
			f.NumVars = nv
			declaredClauses = nc
			sawProblem = true
			continue
		}
		if !sawProblem {
			return f, fmt.Errorf("dimacs: line %d: clause before problem line", lineNo)
		}
		for _, tok := range strings.Fields(line) {
			v, err := strconv.ParseInt(tok, 10, 32)
			if err != nil {
				return f, fmt.Errorf("dimacs: line %d: bad literal %q", lineNo, tok)
			}
			if v == 0 {
				f.Clauses = append(f.Clauses, current)
				current = nil
				continue
			}
			if max(v, -v) > int64(f.NumVars) {
				return f, fmt.Errorf("dimacs: line %d: literal %d references a variable beyond the declared %d", lineNo, v, f.NumVars)
			}
			current = append(current, Lit(v))
		}
	}
	if err := sc.Err(); err != nil {
		return f, fmt.Errorf("dimacs: %w", err)
	}
	if !sawProblem {
		return f, fmt.Errorf("dimacs: missing problem line")
	}
	if len(current) > 0 {
		// Tolerate a final clause without trailing 0, as some SATLIB
		// files do.
		f.Clauses = append(f.Clauses, current)
	}
	if err := f.Validate(); err != nil {
		return f, fmt.Errorf("dimacs: %w", err)
	}
	if declaredClauses >= 0 && len(f.Clauses) != declaredClauses {
		return f, fmt.Errorf("dimacs: declared %d clauses but found %d", declaredClauses, len(f.Clauses))
	}
	return f, nil
}

// WriteDIMACS serialises the formula in DIMACS CNF format.
func WriteDIMACS(w io.Writer, f Formula) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "c generated by hypersolve\np cnf %d %d\n", f.NumVars, len(f.Clauses)); err != nil {
		return err
	}
	for _, c := range f.Clauses {
		for _, l := range c {
			if _, err := fmt.Fprintf(bw, "%d ", int(l)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(bw, "0"); err != nil {
			return err
		}
	}
	return bw.Flush()
}
