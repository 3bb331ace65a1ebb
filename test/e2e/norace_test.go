//go:build !race

package e2e

// raceEnabled reports whether the test binary carries the race
// detector, whose instrumentation slows the in-test load clients.
const raceEnabled = false
