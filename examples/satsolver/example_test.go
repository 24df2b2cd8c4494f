package main

// Example runs the program and pins its output, so the facade calls it
// makes stay runnable and their simulated counts stay put.
func Example() {
	main()
	// Output:
	// instance: 20 variables, 91 clauses (uniform random 3-SAT)
	// sequential DPLL: SAT in 41 calls
	//
	// ── round-robin (static) ──
	// verdict: SAT (verified: true)
	// computation time: 33 steps, messages: 225
	// node activity (load imbalance CV 3.23):
	// |@ * + = :             . : = |
	// |= - : :                   . |
	// |                            |
	// |                            |
	// |                            |
	// |                            |
	// |                            |
	// |                            |
	// |                            |
	// |                            |
	// |                            |
	// |                            |
	// |.                           |
	// |- . . .                   . |
	//
	// ── least-busy-neighbour (adaptive) ──
	// verdict: SAT (verified: true)
	// computation time: 23 steps, messages: 225
	// node activity (load imbalance CV 2.15):
	// |+ - : : - :       : : : : : |
	// |+ = * # % :     . = * + * * |
	// |+ - + + @ :     : - - : - * |
	// |-   . - +               . - |
	// |                            |
	// |                            |
	// |                            |
	// |                            |
	// |                            |
	// |                            |
	// |                            |
	// |                            |
	// |                            |
	// |                            |
}
