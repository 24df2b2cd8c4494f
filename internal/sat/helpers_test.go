package sat

// SolveBruteForce decides satisfiability by enumerating all 2^NumVars
// assignments. It is the test oracle for small formulas.
func SolveBruteForce(f Formula) Result {
	n := f.NumVars
	if n > 24 {
		panic("sat: brute force limited to 24 variables")
	}
	a := NewAssignment(n)
	for bits := 0; bits < 1<<n; bits++ {
		for v := 1; v <= n; v++ {
			if bits>>(v-1)&1 == 1 {
				a[v] = 1
			} else {
				a[v] = -1
			}
		}
		if Verify(f, a) {
			return Result{Status: SAT, Assignment: a.Clone()}
		}
	}
	return Result{Status: UNSAT}
}

// FreeVars counts variables that appear in remaining clauses.
func (p *Problem) FreeVars() int {
	seen := make([]uint8, p.NumVars+1)
	p.polarities(seen)
	n := 0
	for _, s := range seen {
		if s != 0 {
			n++
		}
	}
	return n
}
