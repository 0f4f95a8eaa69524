//go:build race

package experiments

// raceEnabled reports whether the race detector instruments this build.
// The scale smoke shrinks under it: instrumentation slows the 10⁵-node
// message-level floods past the test's wall-clock budget.
const raceEnabled = true
