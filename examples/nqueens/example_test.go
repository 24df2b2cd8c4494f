package main

// Example runs the program and pins its output, so the facade calls it
// makes stay runnable and their simulated counts stay put.
func Example() {
	main()
	// Output:
	// 8-queens has 92 solutions (sequential oracle)
	//
	// mapping algorithm comparison (cutoff 3):
	//   rr          92 solutions in  119 steps,   2205 messages  [ok]
	//   lbn         92 solutions in   39 steps,   2205 messages  [ok]
	//   random      92 solutions in  112 steps,   2205 messages  [ok]
	//   weighted    92 solutions in   59 steps,   2205 messages  [ok]
	//
	// grain size sweep (least-busy-neighbour):
	//   cutoff 0:   59 steps,    4113 messages
	//   cutoff 2:   51 steps,    3305 messages
	//   cutoff 4:   30 steps,    1069 messages
	//   cutoff 6:   16 steps,     101 messages
}
