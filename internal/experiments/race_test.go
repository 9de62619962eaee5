//go:build race

package experiments

// raceEnabled reports whether the race detector is active; its
// instrumentation allocates, and sync.Pool drops items at random under
// it, so allocation-count assertions are skipped under -race.
const raceEnabled = true
