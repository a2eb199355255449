// Package gate is the shard-aware scatter/gather router in front of a
// fleet of cubed shards — ROADMAP item 2's "millions of users" unlock.
// Each shard owns a disjoint set of datasets and serves the full
// relationship API over them; the gate owns a static shard map, routes
// writes to the owning shard, fans reads out to every shard and merges
// the answers deterministically (sorted by observation URI, shard-local
// indices discarded), so the merged response is byte-identical no matter
// which shard answers first or which of a primary/replica pair wins a
// hedge.
//
// Robustness is the design center, not an afterthought:
//
//   - Per-target circuit breakers (breaker.go) and /readyz probing
//     take a dead shard out of the fan-out within a probe interval and
//     let it back in via the breaker's half-open probe discipline.
//   - Hedged reads: a read goes to the shard's primary first; if it has
//     not answered within a latency-quantile delay (read from the
//     primary's own latency histogram) the replica is fired
//     and the first success wins, the loser's context canceled. Writes
//     are never hedged (inserts are not idempotent).
//   - Deadline budgets: every shard call's deadline is carved from the
//     inbound request's context minus a merge reserve, so the gate
//     always has time left to render what it gathered.
//   - Partial results beat no results: when a shard is down, breaker-
//     open or timed out, the merged response still answers with
//     "partial": true plus the missing shard list; 503 is reserved for
//     the moment zero shards answer.
//   - Bounded write retries: 429/503 from the owning shard are retried
//     with serve.Backoff, honoring Retry-After and following the Leader
//     header a demoted follower points at.
//
// The gate is stateless: it holds no corpus, no WAL, no snapshot — only
// the shard map and its health machinery — so any number of gates can
// front the same fleet.
package gate

import (
	"context"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"rdfcube/internal/front"
	"rdfcube/internal/obsv"
)

// Metric names reported through the Recorder.
const (
	CtrRequests   = "gate.requests"      // requests admitted
	CtrErrors     = "gate.errors"        // 4xx/5xx answered
	CtrPanics     = "gate.panics"        // handler panics recovered
	CtrPartial    = "gate.partial"       // merged responses flagged partial
	CtrNoShards   = "gate.noshards"      // reads refused: zero shards answered
	CtrHedgeFired = "gate.hedge.fired"   // replica hedges launched
	CtrHedgeWon   = "gate.hedge.won"     // hedges that beat the primary
	CtrRetries    = "gate.write.retries" // write retry attempts
	CtrMapSwaps   = "gate.map.swaps"     // shard map epochs installed
	HistLatency   = "gate.latency.us"    // all-routes gate latency (µs)
	// HistWriteLatency is the latency (µs) of one answered upstream POST
	// attempt — client inserts and migration copies alike.
	HistWriteLatency = "gate.write.latency.us"
)

// routeHistName returns the per-route latency histogram name.
func routeHistName(route string) string { return "gate.latency." + route + ".us" }

// targetHistName is the per-target upstream latency histogram (µs) —
// also the source of that target's hedge delay quantile. pooledTarget
// looks it up once per target.
func targetHistName(shard, role string) string {
	return "gate.shard." + shard + "." + role + ".latency.us"
}

// ShardConfig names one shard: its primary (the write target), an
// optional read replica (the hedge target), and the dataset URIs it
// owns. JSON tags match the cubegate shard-map file.
type ShardConfig struct {
	// Name identifies the shard in stats, logs and missing-shard lists.
	Name string `json:"name"`
	// Primary is the shard leader's base URL (scheme://host:port).
	Primary string `json:"primary"`
	// Replica is an optional follower base URL used for hedged reads.
	Replica string `json:"replica,omitempty"`
	// Datasets are the dataset URIs whose writes route to this shard.
	Datasets []string `json:"datasets"`
}

// Config tunes a Gate. Zero values get sane defaults.
type Config struct {
	// Shards is the INITIAL shard map; at least one entry is required.
	// The map is live after New: SwapMap, POST /v1/shardmap and the
	// migration cutover all install successors atomically.
	Shards []ShardConfig
	// Epoch is the initial map's epoch; successors must be higher.
	Epoch int64
	// OnMapChange, when set, observes every successfully installed map
	// (admin swaps and migration cutovers alike). cubegate uses it to
	// rewrite the map file so a restart comes back on the new epoch. It
	// is called outside the swap lock; implementations must be safe to
	// call from migration goroutines.
	OnMapChange func(ShardMap)
	// MigrationStateDir is where migration state files persist (one JSON
	// file per migration ID, written atomically). Empty keeps migration
	// state in memory only — resumable within the process, lost on a
	// crash.
	MigrationStateDir string
	// Migrator tunes the migration state machine (see MigratorOptions).
	Migrator MigratorOptions
	// Transport performs the upstream HTTP calls; nil means a fresh
	// http.Transport. Tests inject loadgen.HandlerTransport-style
	// in-process transports here.
	Transport http.RoundTripper
	// Recorder is the gate's one registry: counters and latency
	// histograms land in it, and /v1/stats, /readyz and the hedge delay
	// read them back from it. Nil means the gate makes its own.
	Recorder *obsv.Collector
	// RequestTimeout bounds one inbound request; zero means 5s.
	RequestTimeout time.Duration
	// ShardTimeout bounds one upstream call; zero means 2s. The
	// effective per-call deadline is the smaller of this and what
	// remains of the inbound budget after MergeReserve.
	ShardTimeout time.Duration
	// MergeReserve is held back from the inbound budget for merging and
	// rendering; zero means 100ms.
	MergeReserve time.Duration
	// ProbeInterval paces the /readyz health prober; zero means 2s,
	// negative disables probing (tests drive health by hand).
	ProbeInterval time.Duration
	// BreakerThreshold / BreakerBackoff configure each target's circuit
	// breaker (newBreaker defaults: 3 failures, 5s base).
	BreakerThreshold int
	BreakerBackoff   time.Duration
	// HedgeMin / HedgeMax clamp the hedge delay; zero means 5ms / 250ms.
	// HedgeMax is also the delay used before any latency data exists.
	HedgeMin, HedgeMax time.Duration
	// WriteRetries bounds re-sends of one write after a retryable
	// refusal (429/503/transport error); zero means 3, negative none.
	WriteRetries int
	// WriteRetryBase seeds the write retry backoff; zero means 100ms.
	WriteRetryBase time.Duration
	// MaxRetryWait caps how long one Retry-After hint is honored; zero
	// means 2s (a gate cannot wait out a 30s hint inside a 5s budget).
	MaxRetryWait time.Duration
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, a ...any)
}

func (c Config) requestTimeout() time.Duration {
	if c.RequestTimeout <= 0 {
		return 5 * time.Second
	}
	return c.RequestTimeout
}

func (c Config) shardTimeout() time.Duration {
	if c.ShardTimeout <= 0 {
		return 2 * time.Second
	}
	return c.ShardTimeout
}

func (c Config) mergeReserve() time.Duration {
	if c.MergeReserve <= 0 {
		return 100 * time.Millisecond
	}
	return c.MergeReserve
}

func (c Config) probeInterval() time.Duration {
	if c.ProbeInterval == 0 {
		return 2 * time.Second
	}
	return c.ProbeInterval
}

func (c Config) hedgeMin() time.Duration {
	if c.HedgeMin <= 0 {
		return 5 * time.Millisecond
	}
	return c.HedgeMin
}

func (c Config) hedgeMax() time.Duration {
	if c.HedgeMax <= 0 {
		return 250 * time.Millisecond
	}
	return c.HedgeMax
}

func (c Config) writeRetries() int {
	if c.WriteRetries == 0 {
		return 3
	}
	if c.WriteRetries < 0 {
		return 0
	}
	return c.WriteRetries
}

func (c Config) writeRetryBase() time.Duration {
	if c.WriteRetryBase <= 0 {
		return 100 * time.Millisecond
	}
	return c.WriteRetryBase
}

func (c Config) maxRetryWait() time.Duration {
	if c.MaxRetryWait <= 0 {
		return 2 * time.Second
	}
	return c.MaxRetryWait
}

// Gate is the router. Create with New, serve Handler(), stop with Close.
type Gate struct {
	cfg     Config
	client  *http.Client
	rec     *obsv.Collector
	logf    func(format string, a ...any)
	started time.Time
	// front is the HTTP layer around every route: counters, latency,
	// trace IDs and spans, panic containment, the trace ring behind
	// /debug/traces and the request deadline.
	front *front.Front

	// rt is the live route table; swapMu serializes validate-then-store
	// sequences (readers never take it). targets pools endpoint objects
	// across swaps so breaker/health state survives reloads.
	rt          rtPointer
	swapMu      sync.Mutex
	targetsMu   sync.Mutex
	targets     map[string]*target
	onMapChange func(ShardMap)

	// Migrations: one runner per started migration ID.
	migMu      sync.Mutex
	migrations map[string]*Migrator

	stopProbe chan struct{}
	probeWG   sync.WaitGroup
}

// New validates the initial shard map and starts the health prober.
func New(cfg Config) (*Gate, error) {
	transport := cfg.Transport
	if transport == nil {
		transport = &http.Transport{MaxIdleConnsPerHost: 16}
	}
	if cfg.Recorder == nil {
		cfg.Recorder = obsv.NewCollector()
	}
	g := &Gate{
		cfg:         cfg,
		client:      &http.Client{Transport: transport},
		rec:         cfg.Recorder,
		logf:        cfg.Logf,
		started:     time.Now(),
		targets:     map[string]*target{},
		onMapChange: cfg.OnMapChange,
		migrations:  map[string]*Migrator{},
		stopProbe:   make(chan struct{}),
		front: front.New(front.Config{
			Requests: CtrRequests, Errors: CtrErrors, Panics: CtrPanics,
			Latency: HistLatency, RouteLatency: routeHistName,
			Recorder: cfg.Recorder,
			Logf:     cfg.Logf,
			Timeout:  cfg.requestTimeout(),
		}),
	}
	m := ShardMap{Epoch: cfg.Epoch, Shards: cfg.Shards}
	if err := ValidateShardMap(m); err != nil {
		return nil, err
	}
	g.rt.Store(g.buildTable(m))
	if iv := cfg.probeInterval(); iv > 0 {
		g.probeWG.Add(1)
		go g.probeLoop(iv)
	}
	return g, nil
}

// Close stops the prober, stops every running migration (their state
// files keep them resumable), and releases idle upstream connections.
func (g *Gate) Close() {
	select {
	case <-g.stopProbe:
	default:
		close(g.stopProbe)
	}
	g.probeWG.Wait()
	g.migMu.Lock()
	runners := make([]*Migrator, 0, len(g.migrations))
	for _, m := range g.migrations {
		runners = append(runners, m)
	}
	g.migMu.Unlock()
	for _, m := range runners {
		m.Stop()
	}
	g.client.CloseIdleConnections()
}

// Handler returns the gate's HTTP handler.
func (g *Gate) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /healthz", g.front.Wrap("healthz", g.handleHealthz))
	mux.Handle("GET /readyz", g.front.Wrap("readyz", g.handleReadyz))
	mux.Handle("GET /v1/related", g.front.Wrap("related", g.readFanout(&routeRelated)))
	mux.Handle("GET /v1/contains", g.front.Wrap("contains", g.readFanout(&routeContains)))
	mux.Handle("GET /v1/complements", g.front.Wrap("complements", g.readFanout(&routeComplements)))
	mux.Handle("POST /v1/observations", g.front.Wrap("insert", g.handleInsert))
	mux.Handle("GET /v1/stats", g.front.Wrap("stats", g.handleStats))
	mux.Handle("GET /v1/shardmap", g.front.Wrap("shardmap", g.handleGetShardMap))
	mux.Handle("POST /v1/shardmap", g.front.Wrap("shardmap", g.handleSwapShardMap))
	mux.Handle("GET /v1/migrations", g.front.Wrap("migrations", g.handleListMigrations))
	mux.Handle("POST /v1/migrations", g.front.Wrap("migrations", g.handleStartMigration))
	mux.Handle("POST /v1/migrations/{id}/abort", g.front.Wrap("migrations", g.handleAbortMigration))
	// The inbound deadline rides the request context: the scatter, hedge
	// and write-retry budgets are carved from it, so the gate answers its
	// own deadline (a partial or structured refusal) instead of a canned
	// timeout body.
	return g.front.Mux(mux)
}

// probeLoop polls every target's /readyz and feeds health + breakers:
// a 200 closes the circuit (the probe IS the half-open trial), anything
// else counts a failure, so a partitioned shard trips open within
// BreakerThreshold intervals even with zero query traffic.
func (g *Gate) probeLoop(interval time.Duration) {
	defer g.probeWG.Done()
	probeTimeout := interval
	if probeTimeout > time.Second {
		probeTimeout = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		// Probe immediately on start, then on every tick. Targets are
		// probed concurrently: a dead target costs a full probe timeout,
		// and paying that serially would delay detection of every target
		// behind it in the list. Each round probes the CURRENT table's
		// targets; endpoints dropped by a swap stop being probed.
		var wg sync.WaitGroup
		for _, sh := range g.table().shards {
			var ts [2]*target
			for _, tgt := range sh.targets(&ts) {
				wg.Add(1)
				go func(tgt *target) {
					defer wg.Done()
					g.probeOne(tgt, probeTimeout)
				}(tgt)
			}
		}
		wg.Wait()
		select {
		case <-g.stopProbe:
			return
		case <-t.C:
		}
	}
}

func (g *Gate) probeOne(tgt *target, timeout time.Duration) {
	req, err := http.NewRequest("GET", tgt.url+"/readyz", nil)
	if err != nil {
		return
	}
	ctx, cancel := context.WithTimeout(req.Context(), timeout)
	defer cancel()
	resp, err := g.client.Do(req.WithContext(ctx))
	ok := false
	if err == nil {
		drain(resp)
		ok = resp.StatusCode == http.StatusOK
	}
	was := tgt.healthy.Swap(ok)
	if ok {
		tgt.breaker.Success()
	} else {
		tgt.breaker.Failure(time.Now())
	}
	if was != ok {
		g.log("shard %s %s (%s): health %v -> %v", tgt.shardName, tgt.role, tgt.url, was, ok)
	}
}

func (g *Gate) handleHealthz(w http.ResponseWriter, r *http.Request) {
	front.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz reports per-shard reachability: 200 while at least one
// shard has an available target (the gate can still answer, partially),
// 503 when none do.
func (g *Gate) handleReadyz(w http.ResponseWriter, r *http.Request) {
	t := g.table()
	available := 0
	var downNames []string
	for _, sh := range t.shards {
		if sh.available() {
			available++
		} else {
			downNames = append(downNames, sh.name)
		}
	}
	sort.Strings(downNames)
	resp := map[string]any{
		"shards":          len(t.shards),
		"availableShards": available,
		"epoch":           t.m.Epoch,
	}
	if phases := g.migrationPhases(); len(phases) > 0 {
		resp["migrations"] = phases
	}
	switch {
	case available == len(t.shards):
		resp["status"] = "ready"
		front.WriteJSON(w, http.StatusOK, resp)
	case available > 0:
		resp["status"] = "degraded"
		resp["downShards"] = downNames
		front.WriteJSON(w, http.StatusOK, resp)
	default:
		resp["status"] = "unavailable"
		resp["downShards"] = downNames
		front.WriteJSON(w, http.StatusServiceUnavailable, resp)
	}
}

// migrationPhases summarizes running/finished migrations (id -> phase)
// for /readyz.
func (g *Gate) migrationPhases() map[string]string {
	g.migMu.Lock()
	defer g.migMu.Unlock()
	if len(g.migrations) == 0 {
		return nil
	}
	out := make(map[string]string, len(g.migrations))
	for id, m := range g.migrations {
		out[id] = m.State().Phase
	}
	return out
}

func (g *Gate) log(format string, a ...any) {
	if g.logf != nil {
		g.logf(format, a...)
	}
}

// trimBase normalizes a configured base URL (no trailing slash).
func trimBase(u string) string { return strings.TrimRight(u, "/") }
