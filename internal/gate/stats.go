package gate

import (
	"net/http"
	"time"

	"rdfcube/internal/front"
	"rdfcube/internal/obsv"
)

// targetStats is one upstream endpoint's health picture in /v1/stats.
type targetStats struct {
	Role     string `json:"role"`
	URL      string `json:"url"`
	Healthy  bool   `json:"healthy"`
	Breaker  string `json:"breaker"`
	Failures int    `json:"failures"`
	// Latency is the target's upstream latency quantile summary (µs),
	// present once traffic has flowed.
	Latency *obsv.QuantileSummary `json:"latency,omitempty"`
}

// shardStats is one shard-map entry's health picture.
type shardStats struct {
	Name      string        `json:"name"`
	Datasets  []string      `json:"datasets"`
	Available bool          `json:"available"`
	Targets   []targetStats `json:"targets"`
}

// migrationStats is one migration's public state in /v1/stats.
type migrationStats struct {
	ID       string `json:"id"`
	Phase    string `json:"phase"`
	From     string `json:"from"`
	To       string `json:"to"`
	Datasets int    `json:"datasets"`
	// Pumped counts WAL records relayed to the target.
	Pumped int64  `json:"pumped"`
	Error  string `json:"error,omitempty"`
}

// statsResponse is GET /v1/stats on the gate: the fleet's health as the
// router sees it, plus the hedging and degradation counters the chaos
// harness and operators read. Epoch names the installed shard map;
// Migrations surfaces the rebalance machinery.
type statsResponse struct {
	Role            string           `json:"role"`
	Epoch           int64            `json:"epoch"`
	Shards          []shardStats     `json:"shards"`
	AvailableShards int              `json:"availableShards"`
	HedgeFired      int64            `json:"hedgeFired"`
	HedgeWon        int64            `json:"hedgeWon"`
	PartialReads    int64            `json:"partialReads"`
	Migrations      []migrationStats `json:"migrations,omitempty"`
	UptimeSeconds   float64          `json:"uptimeSeconds"`
}

func (g *Gate) handleStats(w http.ResponseWriter, r *http.Request) {
	t := g.table()
	resp := statsResponse{
		Role:          "gate",
		Epoch:         t.m.Epoch,
		HedgeFired:    g.rec.Counter(CtrHedgeFired).Load(),
		HedgeWon:      g.rec.Counter(CtrHedgeWon).Load(),
		PartialReads:  g.rec.Counter(CtrPartial).Load(),
		UptimeSeconds: time.Since(g.started).Seconds(),
	}
	for _, m := range g.Migrations() {
		resp.Migrations = append(resp.Migrations, migrationStats{
			ID:       m.Spec.ID,
			Phase:    m.Phase,
			From:     m.Spec.From,
			To:       m.Spec.To,
			Datasets: len(m.Spec.Datasets),
			Pumped:   m.Pumped,
			Error:    m.Error,
		})
	}
	for _, sh := range t.shards {
		ss := shardStats{
			Name:      sh.name,
			Datasets:  sh.datasets,
			Available: sh.available(),
		}
		var ts [2]*target
		for _, t := range sh.targets(&ts) {
			state, fails := t.breaker.Snapshot()
			ts := targetStats{
				Role:     t.role,
				URL:      t.url,
				Healthy:  t.healthy.Load(),
				Breaker:  state,
				Failures: fails,
			}
			if snap := t.latency.Snapshot(); snap.Count > 0 {
				sum := snap.Summary()
				ts.Latency = &sum
			}
			ss.Targets = append(ss.Targets, ts)
		}
		if ss.Available {
			resp.AvailableShards++
		}
		resp.Shards = append(resp.Shards, ss)
	}
	front.WriteJSON(w, http.StatusOK, resp)
}
