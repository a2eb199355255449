package chaos

// The gate harness: partition chaos for the scatter/gather router.
//
// Topology: three relationship-closed shards (gen.ShardWorlds), each a
// live serve.Server exposed through TWO listeners — a primary and a
// replica hedge target — each listener fronted by its own netchaos
// proxy with an independent fault schedule. A gate.Gate routes through
// the proxies; an unsharded oracle (the combined corpus behind a
// 1-shard gate, no proxies) renders ground truth through the exact same
// merge path.
//
// The soak has three phases: normal traffic with low-grade network
// faults, a full partition of one shard (both its proxies blackhole),
// then heal. The invariants checked are the gate's whole contract:
//
//   - during the partition, reads keep answering with "partial": true
//     naming the missing shard — the fleet never goes dark because one
//     shard did;
//   - the partitioned shard's breaker is observably open in /v1/stats,
//     and hedges fired while primaries dawdled;
//   - read latency p99 during the partition stays bounded (deadline
//     budgets + breakers, not 5s timeouts, absorb the dead shard);
//   - after heal, every insert the gate may have acknowledged is
//     reconciled and the merged responses converge byte-for-byte with
//     the unsharded oracle — sharding plus chaos changed nothing about
//     the answers;
//   - nothing leaks: the driving test registers leakcheck.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rdfcube/internal/gate"
	"rdfcube/internal/gen"
	"rdfcube/internal/netchaos"
	"rdfcube/internal/obsv"
	"rdfcube/internal/serve"
)

// GateOptions tunes one partition soak. The zero value is a quick
// tier-1 run.
type GateOptions struct {
	// Seed drives the fault schedules and the op mix; zero means 1.
	Seed uint64
	// Workers is the number of concurrent client goroutines; zero means 4.
	Workers int
	// Round is the total traffic duration, split over the three phases
	// (normal / partitioned / healed); zero means 900ms.
	Round time.Duration
	// ObsPerDataset sizes the shard corpora; zero means 20.
	ObsPerDataset int
	// Logf receives progress lines; nil discards them.
	Logf func(format string, a ...any)
}

func (o GateOptions) seed() uint64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

func (o GateOptions) workers() int {
	if o.Workers <= 0 {
		return 4
	}
	return o.Workers
}

func (o GateOptions) round() time.Duration {
	if o.Round <= 0 {
		return 900 * time.Millisecond
	}
	return o.Round
}

func (o GateOptions) obsPerDataset() int {
	if o.ObsPerDataset <= 0 {
		return 20
	}
	return o.ObsPerDataset
}

// gateShard is one shard's plumbing: the server, its two listeners and
// the two proxies the gate actually talks through.
type gateShard struct {
	name         string
	srv          *serve.Server
	primaryHTTP  *http.Server
	replicaHTTP  *http.Server
	primaryProxy *netchaos.Proxy
	replicaProxy *netchaos.Proxy
}

// gateInsert is one insert attempt the harness made through the gate.
// Whether it landed is unknowable mid-chaos (a truncated 201 looks like
// a transport error); reconcile() settles it after heal.
type gateInsert struct {
	uri  string
	body []byte
}

// insertTemplate is a pre-extracted recipe for a valid twin insert:
// dataset URI, the source observation's dimension values, and the
// schema's measure URIs. Templates are copied out of the corpora BEFORE
// any server starts mutating them — serve.Server owns its corpus once
// live, and the harness must never read it concurrently.
type insertTemplate struct {
	dataset  string
	dims     map[string]string
	measures []string
}

// GateHarness owns one partitioned world.
type GateHarness struct {
	opt       GateOptions
	worlds    []*gen.ShardWorld
	shards    []*gateShard
	templates []insertTemplate

	g      *gate.Gate
	gateTS *httptest.Server

	og       *gate.Gate
	oracleTS *httptest.Server

	oracleSrv  *serve.Server
	oracleHTTP *http.Server

	client  *http.Client
	sampled []string // original observation URIs, sampled across shards

	mu      sync.Mutex
	inserts []gateInsert
	lats    []time.Duration // read latencies inside the partition window

	recording   atomic.Bool
	reads       atomic.Int64 // 200s observed
	partials    atomic.Int64 // 200/404 answers flagged partial
	noShards    atomic.Int64 // 503s (zero shards answered / gate timeout)
	partitionOK atomic.Int64 // 200s observed while the partition was on
	attempted   atomic.Int64 // insert attempts
}

func (h *GateHarness) logf(format string, a ...any) {
	if h.opt.Logf != nil {
		h.opt.Logf(format, a...)
	}
}

// NewGateHarness builds the fleet, the proxies, the gate and the oracle.
func NewGateHarness(opt GateOptions) (*GateHarness, error) {
	h := &GateHarness{opt: opt}
	h.client = &http.Client{Timeout: 10 * time.Second}

	worlds, combined := gen.ShardWorlds(gen.ShardWorldsConfig{
		Seed:          int64(opt.seed()),
		ObsPerDataset: opt.obsPerDataset(),
	})
	h.worlds = worlds

	var shardCfgs []gate.ShardConfig
	var allDatasets []string
	for i, w := range worlds {
		srv, err := buildGateShardServer(w)
		if err != nil {
			h.Close()
			return nil, err
		}
		gs := &gateShard{name: w.Name, srv: srv}

		var addrP, addrR string
		gs.primaryHTTP, addrP, err = serve.Start("127.0.0.1:0", srv)
		if err == nil {
			gs.replicaHTTP, addrR, err = serve.Start("127.0.0.1:0", srv)
		}
		if err != nil {
			h.shards = append(h.shards, gs)
			h.Close()
			return nil, fmt.Errorf("gatechaos: starting shard %s: %w", w.Name, err)
		}

		// Low-grade background faults; the seed offsets keep the two
		// proxies' schedules independent and the whole run reproducible.
		faults := netchaos.Config{
			RefuseProb:   0.03,
			DropProb:     0.02,
			LatencyProb:  0.10,
			TruncateProb: 0.02,
			Latency:      20 * time.Millisecond,
		}
		faults.Seed = opt.seed()*1000 + uint64(i)*2
		gs.primaryProxy, err = netchaos.New(addrP, faults)
		if err == nil {
			faults.Seed++
			gs.replicaProxy, err = netchaos.New(addrR, faults)
		}
		if err != nil {
			h.shards = append(h.shards, gs)
			h.Close()
			return nil, fmt.Errorf("gatechaos: proxying shard %s: %w", w.Name, err)
		}
		h.shards = append(h.shards, gs)

		shardCfgs = append(shardCfgs, gate.ShardConfig{
			Name:     w.Name,
			Primary:  "http://" + gs.primaryProxy.Addr(),
			Replica:  "http://" + gs.replicaProxy.Addr(),
			Datasets: w.Datasets,
		})
		allDatasets = append(allDatasets, w.Datasets...)

		for _, ds := range w.Corpus.Datasets {
			h.sampled = append(h.sampled,
				ds.Observations[0].URI.Value,
				ds.Observations[len(ds.Observations)/2].URI.Value)
			for o := 0; o < len(ds.Observations) && o < 8; o++ {
				src := ds.Observations[o]
				tpl := insertTemplate{dataset: ds.URI.Value, dims: map[string]string{}}
				for k, d := range ds.Schema.Dimensions {
					tpl.dims[d.Value] = src.DimValues[k].Value
				}
				for _, m := range ds.Schema.Measures {
					tpl.measures = append(tpl.measures, m.Value)
				}
				h.templates = append(h.templates, tpl)
			}
		}
	}

	// Tight budgets: a dead shard must cost milliseconds, not the 5s
	// default — the p99 bound below is the point of the exercise.
	g, err := gate.New(gate.Config{
		Shards:           shardCfgs,
		Recorder:         obsv.NewCollector(),
		RequestTimeout:   3 * time.Second,
		ShardTimeout:     300 * time.Millisecond,
		ProbeInterval:    100 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerBackoff:   200 * time.Millisecond,
		HedgeMin:         20 * time.Millisecond,
		HedgeMax:         60 * time.Millisecond,
		WriteRetries:     2,
		WriteRetryBase:   20 * time.Millisecond,
		MaxRetryWait:     100 * time.Millisecond,
		Logf:             opt.Logf,
	})
	if err != nil {
		h.Close()
		return nil, err
	}
	h.g = g
	h.gateTS = httptest.NewServer(g.Handler())

	// The oracle: combined corpus, one shard, no proxies, no probing —
	// ground truth through the same merge/render path.
	oracleSrv, err := buildGateShardServer(&gen.ShardWorld{Corpus: combined})
	if err != nil {
		h.Close()
		return nil, err
	}
	h.oracleSrv = oracleSrv
	var oracleAddr string
	h.oracleHTTP, oracleAddr, err = serve.Start("127.0.0.1:0", oracleSrv)
	if err != nil {
		h.Close()
		return nil, fmt.Errorf("gatechaos: starting oracle: %w", err)
	}
	og, err := gate.New(gate.Config{
		Shards:        []gate.ShardConfig{{Name: "all", Primary: "http://" + oracleAddr, Datasets: allDatasets}},
		ProbeInterval: -1,
	})
	if err != nil {
		h.Close()
		return nil, err
	}
	h.og = og
	h.oracleTS = httptest.NewServer(og.Handler())
	return h, nil
}

// buildGateShardServer computes relationships over one corpus and wraps
// them in a serve.Server.
func buildGateShardServer(w *gen.ShardWorld) (*serve.Server, error) {
	sn, err := computeSnapshot(w.Corpus)
	if err != nil {
		return nil, fmt.Errorf("gatechaos: computing shard state: %w", err)
	}
	return serve.New(sn, serve.Config{})
}

// Close tears the world down: gates first (stops probes and inbound
// traffic), then proxies (severs upstream paths), then the servers.
func (h *GateHarness) Close() {
	if h.gateTS != nil {
		h.gateTS.Close()
	}
	if h.g != nil {
		h.g.Close()
	}
	if h.oracleTS != nil {
		h.oracleTS.Close()
	}
	if h.og != nil {
		h.og.Close()
	}
	for _, gs := range h.shards {
		if gs.primaryProxy != nil {
			gs.primaryProxy.Close()
		}
		if gs.replicaProxy != nil {
			gs.replicaProxy.Close()
		}
	}
	shutdown := func(s *http.Server) {
		if s != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = s.Shutdown(ctx)
		}
	}
	for _, gs := range h.shards {
		if gs.srv != nil {
			gs.srv.BeginShutdown()
		}
		shutdown(gs.primaryHTTP)
		shutdown(gs.replicaHTTP)
	}
	if h.oracleSrv != nil {
		h.oracleSrv.BeginShutdown()
	}
	shutdown(h.oracleHTTP)
	h.client.CloseIdleConnections()
}

// readOnce drives one read through the gate and classifies the answer.
func (h *GateHarness) readOnce(rng *rand.Rand) error {
	uri := h.sampled[rng.IntN(len(h.sampled))]
	start := time.Now()
	resp, err := h.client.Get(h.gateTS.URL + "/v1/related?obs=" + url.QueryEscape(uri))
	if err != nil {
		return nil // client-side timeout under chaos; the gate stayed up
	}
	elapsed := time.Since(start)
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	if h.recording.Load() {
		h.mu.Lock()
		h.lats = append(h.lats, elapsed)
		h.mu.Unlock()
	}
	var flags struct {
		Partial bool `json:"partial"`
	}
	_ = json.Unmarshal(body, &flags)
	if flags.Partial {
		h.partials.Add(1)
	}
	switch resp.StatusCode {
	case http.StatusOK:
		h.reads.Add(1)
		if h.recording.Load() {
			h.partitionOK.Add(1)
		}
		return nil
	case http.StatusNotFound:
		// Only legitimate when qualified: the obs exists somewhere, so a
		// plain 404 with every shard reachable is a wrong answer.
		if !flags.Partial {
			return fmt.Errorf("read %s: unqualified 404 for an existing observation: %s", uri, body)
		}
		return nil
	case http.StatusServiceUnavailable:
		h.noShards.Add(1)
		return nil
	default:
		return fmt.Errorf("read %s: unexpected status %d: %s", uri, resp.StatusCode, body)
	}
}

// insertOnce pushes one twin observation through the gate. The outcome
// is recorded but not trusted — reconcile() settles it after heal.
func (h *GateHarness) insertOnce(rng *rand.Rand, seq int64) error {
	tpl := h.templates[rng.IntN(len(h.templates))]
	measures := map[string]string{}
	for _, m := range tpl.measures {
		measures[m] = fmt.Sprintf("%d", rng.IntN(1000))
	}
	uri := fmt.Sprintf("http://example.org/gatechaos/obs/%d", seq)
	body, err := json.Marshal(map[string]any{
		"dataset":    tpl.dataset,
		"uri":        uri,
		"dimensions": tpl.dims,
		"measures":   measures,
	})
	if err != nil {
		return err
	}
	h.mu.Lock()
	h.inserts = append(h.inserts, gateInsert{uri: uri, body: body})
	h.mu.Unlock()
	h.attempted.Add(1)

	resp, err := h.client.Post(h.gateTS.URL+"/v1/observations", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil // ambiguous; reconciliation decides
	}
	rb, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusCreated, http.StatusConflict,
		http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return nil
	default:
		return fmt.Errorf("insert %s: unexpected status %d: %s", uri, resp.StatusCode, rb)
	}
}

// worker runs the op mix until stop closes.
func (h *GateHarness) worker(stop <-chan struct{}, seed uint64, seq *atomic.Int64, errs chan<- error) {
	rng := rand.New(rand.NewPCG(seed, seed^0xbadc0ffee))
	for {
		select {
		case <-stop:
			return
		default:
		}
		var err error
		if rng.IntN(100) < 85 {
			err = h.readOnce(rng)
		} else {
			err = h.insertOnce(rng, seq.Add(1))
		}
		if err != nil {
			select {
			case errs <- err:
			default:
			}
			return
		}
	}
}

// gateStats mirrors the wire shape of the gate's /v1/stats.
type gateStats struct {
	Shards []struct {
		Name    string `json:"name"`
		Targets []struct {
			Role    string `json:"role"`
			Breaker string `json:"breaker"`
		} `json:"targets"`
	} `json:"shards"`
	AvailableShards int   `json:"availableShards"`
	HedgeFired      int64 `json:"hedgeFired"`
	HedgeWon        int64 `json:"hedgeWon"`
	PartialReads    int64 `json:"partialReads"`
}

func (h *GateHarness) stats() (gateStats, error) {
	var st gateStats
	resp, err := h.client.Get(h.gateTS.URL + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("stats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&st)
}

// fetchBody GETs one URL and returns status and body.
func (h *GateHarness) fetchBody(base, path string) (int, []byte, error) {
	resp, err := h.client.Get(base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	return resp.StatusCode, body, err
}

// reconcile settles every chaotic insert: a post-heal read through the
// gate is retried until it answers definitively (non-partial 200 or
// 404); landed inserts are replayed into the oracle so the two worlds
// agree again. Returns the number that landed.
func (h *GateHarness) reconcile(deadline time.Time) (int, error) {
	h.mu.Lock()
	inserts := append([]gateInsert(nil), h.inserts...)
	h.mu.Unlock()
	landed := 0
	for _, ins := range inserts {
		path := "/v1/related?obs=" + url.QueryEscape(ins.uri)
		for {
			code, body, err := h.fetchBody(h.gateTS.URL, path)
			var flags struct {
				Partial bool `json:"partial"`
			}
			if err == nil {
				_ = json.Unmarshal(body, &flags)
			}
			if err == nil && !flags.Partial && code == http.StatusOK {
				resp, perr := h.client.Post(h.oracleTS.URL+"/v1/observations", "application/json", bytes.NewReader(ins.body))
				if perr != nil {
					return landed, fmt.Errorf("reconcile %s into oracle: %w", ins.uri, perr)
				}
				ob, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
				resp.Body.Close()
				if resp.StatusCode != http.StatusCreated {
					return landed, fmt.Errorf("reconcile %s into oracle: status %d: %s", ins.uri, resp.StatusCode, ob)
				}
				landed++
				break
			}
			if err == nil && !flags.Partial && code == http.StatusNotFound {
				break // definitively never landed
			}
			if time.Now().After(deadline) {
				return landed, fmt.Errorf("reconcile %s: no definitive answer before deadline (last status %d, err %v)", ins.uri, code, err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	return landed, nil
}

// converge polls until the gate's merged answer for uri is byte-equal
// to the oracle's. Background faults make individual attempts flaky;
// equality of complete (non-partial) answers is what must eventually
// hold.
func (h *GateHarness) converge(uri string, deadline time.Time) error {
	path := "/v1/related?obs=" + url.QueryEscape(uri)
	var lastGate, lastOracle []byte
	for {
		gc, gb, gerr := h.fetchBody(h.gateTS.URL, path)
		oc, ob, oerr := h.fetchBody(h.oracleTS.URL, path)
		if gerr == nil && oerr == nil && gc == http.StatusOK && oc == http.StatusOK && bytes.Equal(gb, ob) {
			return nil
		}
		lastGate, lastOracle = gb, ob
		if time.Now().After(deadline) {
			return fmt.Errorf("converge %s: gate and oracle never agreed:\n gate   (%d): %s\n oracle (%d): %s",
				uri, gc, lastGate, oc, lastOracle)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// awaitReady polls the gate's /readyz for the given status.
func (h *GateHarness) awaitReady(status string, deadline time.Time) error {
	for {
		_, body, err := h.fetchBody(h.gateTS.URL, "/readyz")
		if err == nil && bytes.Contains(body, []byte(`"`+status+`"`)) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gate never reported %q: %s (err %v)", status, body, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// p99 is the 99th-percentile of the recorded durations.
func p99(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), d...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := len(sorted) * 99 / 100
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Run drives the three-phase soak and checks every invariant.
func (h *GateHarness) Run(t testing.TB) {
	t.Helper()
	defer h.Close()
	phase := h.opt.round() / 3

	if err := h.awaitReady("ready", time.Now().Add(10*time.Second)); err != nil {
		t.Fatalf("startup: %v", err)
	}

	stop := make(chan struct{})
	errs := make(chan error, 1)
	var seq atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < h.opt.workers(); w++ {
		wg.Add(1)
		seed := h.opt.seed()*1000 + uint64(w)
		go func() {
			defer wg.Done()
			h.worker(stop, seed, &seq, errs)
		}()
	}
	fail := func(format string, a ...any) {
		close(stop)
		wg.Wait()
		t.Fatalf(format, a...)
	}
	checkWorkers := func(when string) {
		select {
		case err := <-errs:
			fail("%s: %v", when, err)
		default:
		}
	}

	// Phase 1: normal traffic under low-grade faults.
	time.Sleep(phase)
	checkWorkers("normal phase")

	// Phase 2: fully partition one shard — both its proxies blackhole
	// live and new connections. The window is floored at 1.2s: the
	// breaker needs threshold×(probe interval + probe timeout) of dark
	// time to trip, regardless of how short the traffic phases are.
	partitionPhase := phase
	if partitionPhase < 1200*time.Millisecond {
		partitionPhase = 1200 * time.Millisecond
	}
	victim := h.shards[1]
	victim.primaryProxy.Partition(true)
	victim.replicaProxy.Partition(true)
	h.recording.Store(true)
	h.logf("gatechaos: partitioned shard %s", victim.name)

	breakerOpen := false
	deadline := time.Now().Add(partitionPhase)
	for time.Now().Before(deadline) {
		if st, err := h.stats(); err == nil && !breakerOpen {
			for _, ss := range st.Shards {
				if ss.Name != victim.name {
					continue
				}
				for _, tgt := range ss.Targets {
					if tgt.Breaker == "open" {
						breakerOpen = true
					}
				}
			}
		}
		time.Sleep(partitionPhase / 20)
	}
	h.recording.Store(false)
	checkWorkers("partition phase")
	if !breakerOpen {
		fail("shard %s never tripped a breaker open during the partition", victim.name)
	}
	if h.partitionOK.Load() == 0 {
		fail("no successful reads during the partition: the fleet went dark with one shard down")
	}
	if h.partials.Load() == 0 {
		fail("no partial answers observed during the partition: degradation was silent")
	}

	// Phase 3: heal and keep traffic flowing while breakers close.
	victim.primaryProxy.Partition(false)
	victim.replicaProxy.Partition(false)
	h.logf("gatechaos: healed shard %s", victim.name)
	time.Sleep(phase)
	checkWorkers("heal phase")
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatalf("late worker error: %v", err)
	default:
	}

	if err := h.awaitReady("ready", time.Now().Add(15*time.Second)); err != nil {
		t.Fatalf("after heal: %v", err)
	}

	// Latency tail during the partition: bounded by the shard budget and
	// the breaker, far under the 3s request timeout.
	h.mu.Lock()
	lats := append([]time.Duration(nil), h.lats...)
	h.mu.Unlock()
	if tail := p99(lats); tail > 1500*time.Millisecond {
		t.Fatalf("partition-window read p99 %v exceeds 1.5s: the dead shard's cost was not contained (n=%d)", tail, len(lats))
	}

	st, err := h.stats()
	if err != nil {
		t.Fatalf("final stats: %v", err)
	}
	if st.HedgeFired == 0 {
		t.Fatalf("no hedges fired across the whole soak: %+v", st)
	}

	reconcileBy := time.Now().Add(20 * time.Second)
	landed, err := h.reconcile(reconcileBy)
	if err != nil {
		t.Fatalf("reconcile: %v", err)
	}

	convergeBy := time.Now().Add(30 * time.Second)
	targets := append([]string(nil), h.sampled...)
	h.mu.Lock()
	for _, ins := range h.inserts {
		targets = append(targets, ins.uri)
	}
	h.mu.Unlock()
	converged := 0
	for _, uri := range targets {
		// Never-landed inserts 404 on both sides; skip them.
		if code, _, err := h.fetchBody(h.oracleTS.URL, "/v1/related?obs="+url.QueryEscape(uri)); err == nil && code == http.StatusNotFound {
			continue
		}
		if err := h.converge(uri, convergeBy); err != nil {
			t.Fatal(err)
		}
		converged++
	}

	if h.reads.Load() == 0 || h.attempted.Load() == 0 {
		t.Fatalf("soak exercised nothing: %d reads, %d insert attempts", h.reads.Load(), h.attempted.Load())
	}
	h.logf("gatechaos: soak complete: %d reads (%d during partition), %d partial, %d no-shard refusals, %d/%d inserts landed, %d hedges (%d won), %d URIs converged with oracle, partition p99 %v",
		h.reads.Load(), h.partitionOK.Load(), h.partials.Load(), h.noShards.Load(),
		landed, h.attempted.Load(), st.HedgeFired, st.HedgeWon, converged, p99(lats))
}
