package main

// Example runs the program and pins its output, so the facade calls it
// makes stay runnable and their simulated counts stay put.
func Example() {
	main()
	// Output:
	// 16 items, capacity 120; optimal value (DP oracle): 210
	//
	// round-robin (hints ignored)    value 210 in  512 steps,  15409 messages  [ok]
	// least-busy (hints ignored)     value 210 in 1222 steps,  15409 messages  [ok]
	// weighted alpha=1 (hint-aware)  value 210 in  584 steps,  15409 messages  [ok]
	// weighted alpha=4 (hint-aware)  value 210 in  783 steps,  15409 messages  [ok]
}
