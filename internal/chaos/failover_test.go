package chaos

import (
	"testing"

	"rdfcube/internal/leakcheck"
)

// TestFailover is the replication chaos round: a primary and two
// followers behind a stable front URL. Follower A bootstraps against
// the seed state, an insert wave lands, follower B bootstraps
// MID-STREAM (its image must cover records it never saw on the wire),
// both converge to byte-identical /v1/related answers, then the primary
// is killed mid-insert — alternating power cuts and graceful stops —
// and the followers must keep serving reads, stay READY until the
// -max-staleness bound passes, flip to 503/stale after it, and
// re-bootstrap + reconverge when the primary returns on the same URL.
// At the end every insert the primary ever acked must be queryable on
// every follower.
func TestFailover(t *testing.T) {
	leakcheck.Check(t)
	inserts := 30
	if testing.Short() {
		inserts = 12
	}
	Failover(t, Options{
		Seed:    11,
		Rounds:  2,
		Inserts: inserts,
		Logf:    t.Logf,
	})
}
