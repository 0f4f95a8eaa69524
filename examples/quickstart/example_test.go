package main

// Example runs the quickstart end to end: an apex network, a shortcut for
// early Borůvka fragments, and the shortcut-framework MST, simulated on the
// CONGEST engine and compared with the run that uses no shortcuts.
func Example() {
	main()
	// Output:
	// network: n=257 m=728 diameter=2
	// shortcut for 51 fragments: congestion=1 blocks=1 quality=3
	// MST: weight=313.398 phases=3 simulated-rounds=16 charged-construction-rounds=9
	// baseline (no shortcuts): simulated-rounds=28 (same tree: true)
}
