//go:build race

package core

// raceEnabled reports that the race detector is on: sync.Pool then drops a
// random quarter of its Puts, so the allocation count of a pooled run,
// whose tapes come from one, is not exact.
const raceEnabled = true
