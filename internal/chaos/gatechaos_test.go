package chaos

import (
	"testing"

	"rdfcube/internal/leakcheck"
)

// TestGatePartitionChaos is the partition soak for the scatter/gather
// router: three shards behind fault-injecting proxies, one fully
// partitioned mid-load, then healed. The assertions are the gate's
// contract — reads keep answering with "partial": true while a shard is
// dark, the victim's breaker observably opens, the partition-window
// read p99 stays bounded, and after heal (with every chaotic insert
// reconciled) the merged answers converge byte-for-byte with an
// unsharded oracle. leakcheck holds every incarnation to zero leaked
// goroutines. CHAOS_SOAK stretches the traffic phases for the CI
// partition-chaos job.
func TestGatePartitionChaos(t *testing.T) {
	leakcheck.Check(t)
	GatePartition(t, Options{
		Seed:  7,
		Round: soakRound(t, 1) * 3, // three equal phases
		Logf:  t.Logf,
	})
}

// TestGatePartitionChaosSecondSeed re-rolls the fault schedules; kept
// out of -short so tier-1 stays quick.
func TestGatePartitionChaosSecondSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("covered by TestGatePartitionChaos; skip in -short")
	}
	leakcheck.Check(t)
	GatePartition(t, Options{
		Seed:  31,
		Round: soakRound(t, 1) * 3,
		Logf:  t.Logf,
	})
}
