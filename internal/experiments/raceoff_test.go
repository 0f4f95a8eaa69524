//go:build !race

package experiments

// raceEnabled reports whether the race detector instruments this build
// (see raceon_test.go).
const raceEnabled = false
