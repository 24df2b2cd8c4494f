package main

// Example runs the program and pins its output, so the facade calls it
// makes stay runnable and their simulated counts stay put.
func Example() {
	main()
	// Output:
	// torus:8x8      64 nodes: flooded in  12 steps (depth 8, diameter 8),   257 messages, unreached 0
	// grid:8x8       64 nodes: flooded in  16 steps (depth 14, diameter 14),   225 messages, unreached 0
	// hypercube:6    64 nodes: flooded in  12 steps (depth 6, diameter 6),   385 messages, unreached 0
	// ring:16        16 nodes: flooded in  10 steps (depth 8, diameter 8),    33 messages, unreached 0
	//
	// wavefront on an 8x8 grid (visit step per node):
	//   0  1  2  3  4  5  6  7
	//   1  2  3  4  5  6  7  8
	//   2  3  4  5  6  7  8  9
	//   3  4  5  6  7  8  9 10
	//   4  5  6  7  8  9 10 11
	//   5  6  7  8  9 10 11 12
	//   6  7  8  9 10 11 12 13
	//   7  8  9 10 11 12 13 14
}
