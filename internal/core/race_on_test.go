//go:build race

package core

// raceEnabled reports whether the race detector is active; its
// instrumentation defeats escape analysis, so allocation-count
// assertions are skipped under -race.
const raceEnabled = true
