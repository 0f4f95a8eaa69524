package main

// Example runs the sensor-field scenario end to end: corridor minima
// aggregated on the CONGEST engine over an apex-aware shortcut, against
// the rounds naive flooding takes.
func Example() {
	main()
	// Output:
	// sensor field: 8x48 grid + base station, diameter=2, tree height=1
	// corridor minima: 300 312 324 301 305 317 329 302
	// naive flooding:        47 rounds
	// apex-aware shortcut:    4 rounds  (quality=7, blocks=3, congestion=1)
}
