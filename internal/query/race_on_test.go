//go:build race

package query

// raceEnabled reports whether the test binary was built with the race
// detector; see race_off_test.go.
const raceEnabled = true
