//go:build race

package gate

// raceEnabled reports that the race detector is on: sync.Pool then drops a
// random quarter of its Puts, so allocation counts that rely on pooled
// buffers are not exact.
const raceEnabled = true
