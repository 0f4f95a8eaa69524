package main

// Example runs the lower-bound comparison: the best oblivious shortcut on
// the √n lower-bound family against a witness-based shortcut on an
// excluded-minor network of similar size.
func Example() {
	main()
	// Output:
	// lower-bound instance: n=287 diameter=10
	//   best oblivious shortcut quality for the 16 paths: 26 (≈√n·D territory)
	// excluded-minor network: n=92 diameter=5
	//   witness-based shortcut quality: 16 (Õ(d²) = ~25 territory)
	//
	// On minor-free networks quality tracks the diameter; on the
	// lower-bound family it tracks √n even though the diameter is tiny —
	// this is exactly the separation the paper exploits.
}
