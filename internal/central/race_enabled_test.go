//go:build race

package central

// raceEnabled reports whether the race detector is compiled in. Its
// instrumentation allocates on its own account, so the AllocsPerRun
// assertions over the apply path gate on this and skip; the non-race test
// run enforces them.
const raceEnabled = true
