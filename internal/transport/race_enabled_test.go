//go:build race

package transport

// raceEnabled reports whether the race detector is compiled in. Its
// instrumentation allocates on its own account, so the AllocsPerRun
// assertion over the borrowed receive gates on this and skips; the
// non-race test run enforces it.
const raceEnabled = true
