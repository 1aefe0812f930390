//go:build race

package sim

// raceEnabled reports whether the race detector is compiled in; see
// race_off_test.go for the other half.
const raceEnabled = true
