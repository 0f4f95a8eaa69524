package main

// Example runs the backbone scenario end to end: a K5-minor-free network,
// its simulated spanning backbone (MST), and the approximate min-cut with
// the exact cut it is checked against.
func Example() {
	main()
	// Output:
	// backbone: n=134 m=391 diameter=7 (K5-minor-free by construction)
	// spanning backbone: weight=163.156, 4 phases, 42 simulated rounds
	// min-cut: approx=3.376 exact=3.376 ratio=1.000 (trees packed: 48)
	// weakest link set isolates 1 nodes
}
