package chaos

import (
	"os"
	"testing"
	"time"

	"rdfcube/internal/leakcheck"
)

// soakRound resolves the per-round traffic duration: a quick burst for
// tier-1, or whatever CHAOS_SOAK says (a Go duration, e.g. "90s") split
// across the rounds — the CI chaos-soak job sets it to run minutes of
// traffic under -race.
func soakRound(t *testing.T, rounds int) time.Duration {
	if v := os.Getenv("CHAOS_SOAK"); v != "" {
		total, err := time.ParseDuration(v)
		if err != nil {
			t.Fatalf("CHAOS_SOAK=%q: %v", v, err)
		}
		return total / time.Duration(rounds)
	}
	if testing.Short() {
		return 100 * time.Millisecond
	}
	return 300 * time.Millisecond
}

// TestSoak is the chaos soak: concurrent inserts and queries against a
// live server over a fault-injecting disk, with WAL faults and
// checkpoints firing mid-round, then alternating power cuts and graceful
// SIGTERM-shaped stops. After every restart the invariants hold: acked
// observations survive, the incremental pair sets equal a batch run over
// the recovered space, the server is not degraded, and — via leakcheck —
// no goroutine from any incarnation outlives its teardown.
func TestSoak(t *testing.T) {
	leakcheck.Check(t)
	const rounds = 4
	Soak(t, Options{
		Seed:    7,
		Workers: 4,
		Rounds:  rounds,
		Round:   soakRound(t, rounds),
		Logf:    t.Logf,
	})
}

// TestSoakSingleWorkerDeterministicOps is a narrower, calmer soak: one
// worker, no concurrent interleaving of inserts, so the acked set grows
// deterministically for a given seed — useful when debugging a failure
// from the big soak.
func TestSoakSingleWorkerDeterministicOps(t *testing.T) {
	if testing.Short() {
		t.Skip("covered by TestSoak; skip in -short")
	}
	leakcheck.Check(t)
	Soak(t, Options{
		Seed:    42,
		Workers: 1,
		Rounds:  2,
		Round:   150 * time.Millisecond,
		Logf:    t.Logf,
	})
}
