package chaos

import (
	"testing"

	"rdfcube/internal/leakcheck"
)

// TestRebalanceChaos is the migration-under-fire soak: a dataset is
// split off a source shard onto an empty spare while mixed traffic
// flows, the spare is partitioned so the migration stalls mid-copy, and
// the gate is power-cut with the migration in flight. A successor gate
// resumes from the persisted state and carries the migration through
// cutover and drain. Asserted: reads never noticed the dark target
// pre-cutover, the resumed migration completes with the map flipped and
// the moved dataset routing to the spare, every acked insert survives
// reconciliation, and the merged answers converge byte-for-byte with an
// unsharded oracle. leakcheck holds every incarnation to zero leaked
// goroutines. CHAOS_SOAK stretches the traffic phases for the CI
// rebalance-chaos job.
func TestRebalanceChaos(t *testing.T) {
	leakcheck.Check(t)
	Rebalance(t, Options{
		Seed:    11,
		Workers: 3,
		Round:   soakRound(t, 1) * 3,
		Logf:    t.Logf,
	})
}

// TestRebalanceChaosSecondSeed re-rolls the fault schedules; kept out
// of -short so tier-1 stays quick.
func TestRebalanceChaosSecondSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("covered by TestRebalanceChaos; skip in -short")
	}
	leakcheck.Check(t)
	Rebalance(t, Options{
		Seed:    37,
		Workers: 3,
		Round:   soakRound(t, 1) * 3,
		Logf:    t.Logf,
	})
}

// TestRebalanceRollback is the abort story: the migration target is
// partitioned for good, the migration is aborted while stuck in copy,
// and the source must remain fully authoritative — epoch and ownership
// unchanged, writes to the migrating dataset landing on the source and
// never the spare, the aborted state file never revived by a resume
// scan, and the gate's answers still byte-equal to the oracle.
func TestRebalanceRollback(t *testing.T) {
	leakcheck.Check(t)
	RebalanceRollback(t, Options{
		Seed: 5,
		Logf: t.Logf,
	})
}
