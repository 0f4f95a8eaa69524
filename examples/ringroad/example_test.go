package main

// Example runs the ring-road scenario end to end: the naive Bellman–Ford
// baseline, the analytic and the simulated (1+ε) pipelines, and the
// stretch self-check, which exits the program if the guarantee fails.
func Example() {
	main()
	// Output:
	// ring road: 97 depots + air hub, diameter=2, shortcut quality=3
	// naive flooding:          49 rounds (exact travel times)
	// part-wise relaxation:    48 charged rounds over 3 phases (analytic mode)
	// simulated pipeline:      52 rounds, 2361 messages
	// achieved stretch:      1.0949 (guarantee 1+ε = 1.10)
}
