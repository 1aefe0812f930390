//go:build !race

package sim

// raceEnabled reports whether the race detector is compiled in; see
// race_on_test.go for the other half.
const raceEnabled = false
