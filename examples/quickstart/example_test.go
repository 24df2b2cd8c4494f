package main

// Example runs the program and pins its output, so the facade calls it
// makes stay runnable and their simulated counts stay put.
func Example() {
	main()
	// Output:
	// sum(100) = 5050 (expected 5050)
	// computation time: 201 simulation steps
	// messages exchanged: 201
	// cores that evaluated at least one call: 89 / 196
}
