package chaos

import (
	"testing"
	"time"

	"rdfcube/internal/netchaos"
)

// gateStats mirrors the wire shape of the gate's /v1/stats.
type gateStats struct {
	Shards []struct {
		Name    string `json:"name"`
		Targets []struct {
			Role    string `json:"role"`
			Breaker string `json:"breaker"`
		} `json:"targets"`
	} `json:"shards"`
	HedgeFired int64 `json:"hedgeFired"`
	HedgeWon   int64 `json:"hedgeWon"`
}

// breakerOpen reports whether any target of the named shard has its
// breaker open.
func (st gateStats) breakerOpen(shard string) bool {
	for _, ss := range st.Shards {
		for _, tgt := range ss.Targets {
			if ss.Name == shard && tgt.Breaker == "open" {
				return true
			}
		}
	}
	return false
}

// GatePartition is the partition soak for the scatter/gather router:
// three shards, each behind a primary and a replica proxy with
// independent low-grade fault schedules, mixed traffic through the gate
// in three phases — normal, one shard fully partitioned (both its proxies
// blackhole), healed. Checked is the gate's whole contract:
//
//   - during the partition reads keep answering, with "partial": true
//     naming the missing shard — the fleet never goes dark because one
//     shard did;
//   - the partitioned shard's breaker is observably open in /v1/stats,
//     and hedges fired while primaries dawdled;
//   - read latency p99 during the partition stays bounded (deadline
//     budgets + breakers, not 5s timeouts, absorb the dead shard);
//   - after heal, every insert the gate may have acknowledged is
//     reconciled and the merged responses converge byte-for-byte with the
//     unsharded oracle — sharding plus chaos changed nothing about the
//     answers.
func GatePartition(t testing.TB, opt Options) {
	t.Helper()
	w := New(t, opt)
	defer w.Close()
	f := w.buildFleet(fleetSpec{
		obsPerDataset: 20,
		replicas:      true,
		faults: netchaos.Config{
			RefuseProb: 0.03, DropProb: 0.02, TruncateProb: 0.02,
			LatencyProb: 0.10, Latency: 20 * time.Millisecond,
		},
	})
	phase := opt.round() / 3
	w.awaitReady("ready", 10*time.Second)

	w.traffic(0, op{85, w.readOnce}, op{15, w.insertOnce})
	time.Sleep(phase)
	w.checkTraffic("normal phase")

	// Partition one shard. The window is floored at 1.2s: the breaker
	// needs threshold×(probe interval + probe timeout) of dark time to
	// trip, regardless of how short the traffic phases are.
	window := max(phase, 1200*time.Millisecond)
	victim := f.shards[1]
	victim.partition(true)
	w.window.Store(true)
	w.logf("gatechaos: partitioned shard %s", victim.name)
	breakerOpen := false
	for deadline := time.Now().Add(window); time.Now().Before(deadline); time.Sleep(window / 20) {
		var st gateStats
		if err := w.getJSON(w.baseURL(), "/v1/stats", &st); err == nil && st.breakerOpen(victim.name) {
			breakerOpen = true
		}
	}
	w.window.Store(false)
	w.checkTraffic("partition phase")
	if !breakerOpen {
		w.fatalf("shard %s never tripped a breaker open during the partition", victim.name)
	}
	if w.windowOK.Load() == 0 {
		w.fatalf("no successful reads during the partition: the fleet went dark with one shard down")
	}
	if w.partials.Load() == 0 {
		w.fatalf("no partial answers observed during the partition: degradation was silent")
	}

	// Heal and keep traffic flowing while breakers close.
	victim.partition(false)
	w.logf("gatechaos: healed shard %s", victim.name)
	time.Sleep(phase)
	w.stopTraffic("heal phase")
	w.awaitReady("ready", 15*time.Second)

	// Latency tail during the partition: bounded by the shard budget and
	// the breaker, far under the 3s request timeout.
	if tail, n := w.windowP99(); tail > 1500*time.Millisecond {
		w.fatalf("partition-window read p99 %v exceeds 1.5s: the dead shard's cost was not contained (n=%d)", tail, n)
	}
	var st gateStats
	w.must(w.getJSON(w.baseURL(), "/v1/stats", &st), "final stats")
	if st.HedgeFired == 0 {
		w.fatalf("no hedges fired across the whole soak: %+v", st)
	}

	landed := w.reconcile(20 * time.Second)
	converged := w.convergeAll(30 * time.Second)
	w.exercised()
	w.logf("gatechaos: soak complete: %v, %d landed, %d hedges (%d won), %d URIs converged with oracle",
		w, landed, st.HedgeFired, st.HedgeWon, converged)
}
