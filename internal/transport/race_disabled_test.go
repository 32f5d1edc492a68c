//go:build !race

package transport

// raceEnabled reports whether the race detector is compiled in; see
// race_enabled_test.go.
const raceEnabled = false
