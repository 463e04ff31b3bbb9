//go:build !race

package query

// raceEnabled reports whether the test binary was built with the race
// detector. The wall-clock load tests skip under it: race
// instrumentation slows every request several-fold, so their
// throughput floor and latency band would measure the detector.
const raceEnabled = false
