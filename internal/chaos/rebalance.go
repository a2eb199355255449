package chaos

// The rebalance harness: live shard migration under network partitions
// and a gate power cut.
//
// Topology: three relationship-closed DisjointMeasures shards (so a
// single dataset can be split off a shard without breaking closure),
// each a WAL-backed serve.Server with the registration checkpoint hook
// wired — the shape migration requires (/v1/snapshot + /v1/wal +
// POST /v1/datasets) — behind a netchaos proxy injecting low-grade
// faults. A fourth "spare" shard boots with every schema stubbed and
// zero observations: the migration target. A gate with a migration
// state dir routes through the proxies; an unsharded oracle (combined
// corpus behind a 1-shard gate) renders ground truth through the same
// merge path.
//
// Run drives the full rebalance-under-fire story: mixed traffic flows
// while a migration splits one dataset off a source shard onto the
// spare; the spare is partitioned so the migration stalls mid-copy;
// the gate is then power-cut with the migration in flight; a successor
// gate resumes it from the persisted state and carries it through
// cutover and drain. The invariants are the rebalance contract:
//
//   - reads keep answering completely while the migration is stalled —
//     pre-cutover the source never stops being authoritative, so a dark
//     TARGET must be invisible to clients;
//   - the resumed migration completes: the map flips to epoch+1 and the
//     moved dataset routes to the spare (a post-cutover insert lands on
//     the spare's server and never touches the source);
//   - every insert the gate may have acknowledged across the whole run
//     — including the ones that raced the cutover — is reconciled, and
//     the merged answers converge byte-for-byte with the oracle;
//   - nothing leaks: the driving test registers leakcheck.
//
// RunRollback drives the abort story: the target is partitioned for
// good, the migration is aborted while stuck in copy, and the source
// must remain fully authoritative — epoch unchanged, writes landing on
// the source, the aborted state file never resumed.

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
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rdfcube/internal/faultfs"
	"rdfcube/internal/gate"
	"rdfcube/internal/gen"
	"rdfcube/internal/netchaos"
	"rdfcube/internal/obsv"
	"rdfcube/internal/qb"
	"rdfcube/internal/serve"
	"rdfcube/internal/wal"
)

// RebalanceOptions tunes one rebalance soak. The zero value is a quick
// tier-1 run.
type RebalanceOptions struct {
	// Seed drives the fault schedules and the op mix; zero means 1.
	Seed uint64
	// Workers is the number of concurrent client goroutines; zero means 3.
	Workers int
	// Round is the total traffic duration across the phases; zero means
	// 900ms. The partition window is floored at 1s regardless.
	Round time.Duration
	// ObsPerDataset sizes the shard corpora; zero means 10.
	ObsPerDataset int
	// Logf receives progress lines; nil discards them.
	Logf func(format string, a ...any)
}

func (o RebalanceOptions) seed() uint64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

func (o RebalanceOptions) workers() int {
	if o.Workers <= 0 {
		return 3
	}
	return o.Workers
}

func (o RebalanceOptions) round() time.Duration {
	if o.Round <= 0 {
		return 900 * time.Millisecond
	}
	return o.Round
}

func (o RebalanceOptions) obsPerDataset() int {
	if o.ObsPerDataset <= 0 {
		return 10
	}
	return o.ObsPerDataset
}

// rebShard is one shard's plumbing: the durable server, its listener,
// the proxy the gate talks through, and the direct (proxy-free) address
// the harness uses to inspect what actually landed where.
type rebShard struct {
	name  string
	srv   *serve.Server
	http  *http.Server
	addr  string // direct listener address, no proxy
	proxy *netchaos.Proxy
}

// RebalanceHarness owns one migration-under-chaos world.
type RebalanceHarness struct {
	opt      RebalanceOptions
	worlds   []*gen.ShardWorld
	combined *qb.Corpus
	shards   []*rebShard // sources, then the spare last
	spare    *rebShard

	shardCfgs []gate.ShardConfig
	stateDir  string

	// The migration under test: one dataset split off sourceName.
	sourceName string
	moving     []string

	g      *gate.Gate
	gateTS *httptest.Server
	// gateURL is the current gate base URL; workers load it per request
	// so traffic survives the power-cut-and-restart without a barrier.
	gateURL atomic.Value // string

	og         *gate.Gate
	oracleTS   *httptest.Server
	oracleSrv  *serve.Server
	oracleHTTP *http.Server

	client    *http.Client
	sampled   []string
	templates []insertTemplate

	mu      sync.Mutex
	inserts []gateInsert

	reads     atomic.Int64 // 200s observed
	stalledOK atomic.Int64 // 200s observed while the migration was stalled
	stalled   atomic.Bool  // marks the stall window for stalledOK
	attempted atomic.Int64 // insert attempts
}

func (h *RebalanceHarness) logf(format string, a ...any) {
	if h.opt.Logf != nil {
		h.opt.Logf(format, a...)
	}
}

// buildRebalanceShard builds a WAL-backed shard server with the
// registration checkpoint hook wired — /v1/snapshot, /v1/wal and
// POST /v1/datasets all live, the shape cubed runs in production.
func buildRebalanceShard(c *qb.Corpus) (*serve.Server, error) {
	sn, err := computeSnapshot(c)
	if err != nil {
		return nil, fmt.Errorf("rebalance: computing shard state: %w", err)
	}
	wlog, _, err := wal.Open(faultfs.NewMemFS(), "cube.wal")
	if err != nil {
		return nil, fmt.Errorf("rebalance: opening wal: %w", err)
	}
	var srv *serve.Server
	cfg := serve.Config{WAL: wlog, CheckpointNow: func() error {
		return srv.CheckpointWith(func([]byte) error { return nil })
	}}
	srv, err = serve.New(sn, cfg)
	if err != nil {
		return nil, fmt.Errorf("rebalance: serve.New: %w", err)
	}
	return srv, nil
}

// rebalanceStubCorpus is the empty corpus a brand-new shard boots with:
// every dataset's schema, zero observations. The stubs pin the full
// dimension universe — partial degrees on the spare normalize by the
// same |P| as everywhere else, which is what makes its answers
// byte-comparable during double-read.
func rebalanceStubCorpus(combined *qb.Corpus) *qb.Corpus {
	c := qb.NewCorpus(combined.Hierarchies)
	for _, ds := range combined.Datasets {
		c.AddDataset(&qb.Dataset{URI: ds.URI, Schema: ds.Schema})
	}
	return c
}

// NewRebalanceHarness builds the fleet, the proxies, the gate (with a
// migration state dir) and the oracle.
func NewRebalanceHarness(opt RebalanceOptions) (*RebalanceHarness, error) {
	h := &RebalanceHarness{opt: opt}
	h.client = &http.Client{Timeout: 10 * time.Second}

	var err error
	h.stateDir, err = os.MkdirTemp("", "rebalance-state-")
	if err != nil {
		return nil, err
	}

	worlds, combined := gen.ShardWorlds(gen.ShardWorldsConfig{
		Seed:             int64(opt.seed()),
		ObsPerDataset:    opt.obsPerDataset(),
		DisjointMeasures: true,
	})
	h.worlds = worlds
	h.combined = combined

	addShard := func(name string, srv *serve.Server, faultSeed uint64) (*rebShard, error) {
		rs := &rebShard{name: name, srv: srv}
		var err error
		rs.http, rs.addr, err = serve.Start("127.0.0.1:0", srv)
		if err != nil {
			return rs, fmt.Errorf("rebalance: starting shard %s: %w", name, err)
		}
		// Low-grade background faults — including response truncation,
		// which the migration pump must absorb without skipping records.
		faults := netchaos.Config{
			RefuseProb:   0.02,
			DropProb:     0.01,
			LatencyProb:  0.08,
			TruncateProb: 0.01,
			Latency:      10 * time.Millisecond,
			Seed:         faultSeed,
		}
		rs.proxy, err = netchaos.New(rs.addr, faults)
		if err != nil {
			return rs, fmt.Errorf("rebalance: proxying shard %s: %w", name, err)
		}
		return rs, nil
	}

	var allDatasets []string
	for i, w := range worlds {
		srv, err := buildRebalanceShard(w.Corpus)
		if err != nil {
			h.Close()
			return nil, err
		}
		rs, err := addShard(w.Name, srv, opt.seed()*1000+uint64(i))
		h.shards = append(h.shards, rs)
		if err != nil {
			h.Close()
			return nil, err
		}
		h.shardCfgs = append(h.shardCfgs, gate.ShardConfig{
			Name:     w.Name,
			Primary:  "http://" + rs.proxy.Addr(),
			Datasets: w.Datasets,
		})
		allDatasets = append(allDatasets, w.Datasets...)

		for _, ds := range w.Corpus.Datasets {
			h.sampled = append(h.sampled,
				ds.Observations[0].URI.Value,
				ds.Observations[len(ds.Observations)/2].URI.Value)
			for o := 0; o < len(ds.Observations) && o < 6; o++ {
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

	// The migration under test splits ONE dataset off the middle shard —
	// a strict split when the shard owns several, a full move otherwise.
	h.sourceName = worlds[1].Name
	h.moving = append([]string(nil), worlds[1].Datasets[:1]...)

	spareSrv, err := buildRebalanceShard(rebalanceStubCorpus(combined))
	if err != nil {
		h.Close()
		return nil, err
	}
	h.spare, err = addShard("spare", spareSrv, opt.seed()*1000+900)
	h.shards = append(h.shards, h.spare)
	if err != nil {
		h.Close()
		return nil, err
	}
	h.shardCfgs = append(h.shardCfgs, gate.ShardConfig{
		Name:    "spare",
		Primary: "http://" + h.spare.proxy.Addr(),
	})

	if err := h.startGate(gate.ShardMap{Epoch: 1, Shards: h.shardCfgs}); err != nil {
		h.Close()
		return nil, err
	}

	// The oracle: combined corpus, one shard, no proxies — ground truth
	// through the same merge/render path.
	h.oracleSrv, err = buildGateShardServer(&gen.ShardWorld{Corpus: combined})
	if err != nil {
		h.Close()
		return nil, err
	}
	var oracleAddr string
	h.oracleHTTP, oracleAddr, err = serve.Start("127.0.0.1:0", h.oracleSrv)
	if err != nil {
		h.Close()
		return nil, fmt.Errorf("rebalance: starting oracle: %w", err)
	}
	h.og, err = gate.New(gate.Config{
		Shards:        []gate.ShardConfig{{Name: "all", Primary: "http://" + oracleAddr, Datasets: allDatasets}},
		ProbeInterval: -1,
	})
	if err != nil {
		h.Close()
		return nil, err
	}
	h.oracleTS = httptest.NewServer(h.og.Handler())
	return h, nil
}

// startGate boots a gate over the given map, sharing the harness state
// dir — the successor after a power cut starts from the map the fallen
// gate last installed, exactly as cubegate's rewritten map file would
// have it.
func (h *RebalanceHarness) startGate(m gate.ShardMap) error {
	g, err := gate.New(gate.Config{
		Shards:            m.Shards,
		Epoch:             m.Epoch,
		Recorder:          obsv.NewCollector(),
		RequestTimeout:    3 * time.Second,
		ShardTimeout:      300 * time.Millisecond,
		ProbeInterval:     100 * time.Millisecond,
		BreakerThreshold:  3,
		BreakerBackoff:    200 * time.Millisecond,
		HedgeMin:          20 * time.Millisecond,
		HedgeMax:          60 * time.Millisecond,
		WriteRetries:      2,
		WriteRetryBase:    20 * time.Millisecond,
		MaxRetryWait:      100 * time.Millisecond,
		MigrationStateDir: h.stateDir,
		Migrator: gate.MigratorOptions{
			Interval:     10 * time.Millisecond,
			DrainWindow:  100 * time.Millisecond,
			MatchRounds:  2,
			SampleReads:  4,
			PhaseTimeout: 30 * time.Second,
		},
		Logf: h.opt.Logf,
	})
	if err != nil {
		return err
	}
	h.g = g
	h.gateTS = httptest.NewServer(g.Handler())
	h.gateURL.Store(h.gateTS.URL)
	return nil
}

// powerCutGate kills the gate mid-flight and returns the map it last
// installed. Close cancels the migration goroutine wherever it happens
// to be; the state file holds whatever the last phase transition
// persisted — the crash contract a successor resumes from.
func (h *RebalanceHarness) powerCutGate() gate.ShardMap {
	m := h.g.CurrentMap()
	h.gateTS.Close()
	h.g.Close()
	h.gateTS, h.g = nil, nil
	return m
}

// Close tears the world down: gates first, then proxies, then servers.
func (h *RebalanceHarness) Close() {
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
	for _, rs := range h.shards {
		if rs.proxy != nil {
			rs.proxy.Close()
		}
	}
	for _, rs := range h.shards {
		if rs.srv != nil {
			rs.srv.BeginShutdown()
		}
		if rs.http != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			_ = rs.http.Shutdown(ctx)
			cancel()
		}
	}
	if h.oracleSrv != nil {
		h.oracleSrv.BeginShutdown()
	}
	if h.oracleHTTP != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = h.oracleHTTP.Shutdown(ctx)
		cancel()
	}
	if h.stateDir != "" {
		_ = os.RemoveAll(h.stateDir)
	}
	h.client.CloseIdleConnections()
}

func (h *RebalanceHarness) gateBase() string {
	u, _ := h.gateURL.Load().(string)
	return u
}

// fetchBody GETs one URL and returns status and body.
func (h *RebalanceHarness) fetchBody(base, path string) (int, []byte, error) {
	resp, err := h.client.Get(base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	return resp.StatusCode, body, err
}

// readOnce drives one read through the gate and classifies the answer.
// Client-side transport errors are tolerated (the gate may be mid
// power cut); wrong ANSWERS are not.
func (h *RebalanceHarness) readOnce(rng *rand.Rand) error {
	uri := h.sampled[rng.IntN(len(h.sampled))]
	code, body, err := h.fetchBody(h.gateBase(), "/v1/related?obs="+url.QueryEscape(uri))
	if err != nil {
		return nil
	}
	var flags struct {
		Partial bool `json:"partial"`
	}
	_ = json.Unmarshal(body, &flags)
	switch code {
	case http.StatusOK:
		h.reads.Add(1)
		if h.stalled.Load() {
			h.stalledOK.Add(1)
		}
		return nil
	case http.StatusNotFound:
		if !flags.Partial {
			return fmt.Errorf("read %s: unqualified 404 for an existing observation: %s", uri, body)
		}
		return nil
	case http.StatusServiceUnavailable:
		return nil
	default:
		return fmt.Errorf("read %s: unexpected status %d: %s", uri, code, body)
	}
}

// insertOnce pushes one twin observation through the gate. The outcome
// is recorded but not trusted — reconcile() settles it after the run.
func (h *RebalanceHarness) insertOnce(rng *rand.Rand, seq int64) error {
	tpl := h.templates[rng.IntN(len(h.templates))]
	measures := map[string]string{}
	for _, m := range tpl.measures {
		measures[m] = fmt.Sprintf("%d", rng.IntN(1000))
	}
	uri := fmt.Sprintf("http://example.org/rebalance/obs/%d", seq)
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

	resp, err := h.client.Post(h.gateBase()+"/v1/observations", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil // ambiguous (chaos or gate down); reconciliation decides
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
func (h *RebalanceHarness) worker(stop <-chan struct{}, seed uint64, seq *atomic.Int64, errs chan<- error) {
	rng := rand.New(rand.NewPCG(seed, seed^0xfeedface))
	for {
		select {
		case <-stop:
			return
		default:
		}
		var err error
		if rng.IntN(100) < 90 {
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

// awaitReady polls the gate's /readyz for the given status.
func (h *RebalanceHarness) awaitReady(status string, deadline time.Time) error {
	for {
		_, body, err := h.fetchBody(h.gateBase(), "/readyz")
		if err == nil && bytes.Contains(body, []byte(`"`+status+`"`)) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gate never reported %q: %s (err %v)", status, body, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// migrationState reads the migration's state off the live gate.
func (h *RebalanceHarness) migrationState(id string) (gate.MigrationState, bool) {
	for _, st := range h.g.Migrations() {
		if st.Spec.ID == id {
			return st, true
		}
	}
	return gate.MigrationState{}, false
}

// startMigration POSTs the spec through the admin surface.
func (h *RebalanceHarness) startMigration(id string) error {
	body, _ := json.Marshal(gate.MigrationSpec{
		ID: id, Datasets: h.moving, From: h.sourceName, To: "spare",
	})
	resp, err := h.client.Post(h.gateBase()+"/v1/migrations", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	rb, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("start migration: status %d: %s", resp.StatusCode, rb)
	}
	return nil
}

// insertMoving lands one twin insert into the moving dataset through
// the gate, retrying through background faults until it definitively
// lands (201, or 409 from a retried duplicate). Returns the body so the
// caller can mirror it into the oracle.
func (h *RebalanceHarness) insertMoving(uri string, deadline time.Time) ([]byte, error) {
	var tpl *insertTemplate
	for i := range h.templates {
		if h.templates[i].dataset == h.moving[0] {
			tpl = &h.templates[i]
			break
		}
	}
	if tpl == nil {
		return nil, fmt.Errorf("no insert template for moving dataset %s", h.moving[0])
	}
	measures := map[string]string{}
	for _, m := range tpl.measures {
		measures[m] = "777"
	}
	body, err := json.Marshal(map[string]any{
		"dataset":    tpl.dataset,
		"uri":        uri,
		"dimensions": tpl.dims,
		"measures":   measures,
	})
	if err != nil {
		return nil, err
	}
	for {
		resp, err := h.client.Post(h.gateBase()+"/v1/observations", "application/json", bytes.NewReader(body))
		if err == nil {
			rb, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusCreated, http.StatusConflict:
				return body, nil
			case http.StatusTooManyRequests, http.StatusServiceUnavailable:
				// retry
			default:
				return nil, fmt.Errorf("insert %s: status %d: %s", uri, resp.StatusCode, rb)
			}
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("insert %s: never landed before deadline (last err %v)", uri, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// mirrorIntoOracle replays one landed insert into the oracle.
func (h *RebalanceHarness) mirrorIntoOracle(uri string, body []byte) error {
	resp, err := h.client.Post(h.oracleTS.URL+"/v1/observations", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("mirror %s into oracle: %w", uri, err)
	}
	rb, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusConflict {
		return fmt.Errorf("mirror %s into oracle: status %d: %s", uri, resp.StatusCode, rb)
	}
	return nil
}

// reconcile settles every chaotic insert: a read through the gate is
// retried until it answers definitively (non-partial 200 or 404);
// landed inserts are replayed into the oracle. Returns the number that
// landed.
func (h *RebalanceHarness) reconcile(deadline time.Time) (int, error) {
	h.mu.Lock()
	inserts := append([]gateInsert(nil), h.inserts...)
	h.mu.Unlock()
	landed := 0
	for _, ins := range inserts {
		path := "/v1/related?obs=" + url.QueryEscape(ins.uri)
		for {
			code, body, err := h.fetchBody(h.gateBase(), path)
			var flags struct {
				Partial bool `json:"partial"`
			}
			if err == nil {
				_ = json.Unmarshal(body, &flags)
			}
			if err == nil && !flags.Partial && code == http.StatusOK {
				if merr := h.mirrorIntoOracle(ins.uri, ins.body); merr != nil {
					return landed, merr
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
// to the oracle's.
func (h *RebalanceHarness) converge(uri string, deadline time.Time) error {
	path := "/v1/related?obs=" + url.QueryEscape(uri)
	for {
		gc, gb, gerr := h.fetchBody(h.gateBase(), path)
		oc, ob, oerr := h.fetchBody(h.oracleTS.URL, path)
		if gerr == nil && oerr == nil && gc == http.StatusOK && oc == http.StatusOK && bytes.Equal(gb, ob) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("converge %s: gate and oracle never agreed:\n gate   (%d): %s\n oracle (%d): %s",
				uri, gc, gb, oc, ob)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// convergeAll runs converge over the sampled URIs plus every landed
// insert (never-landed ones 404 on both sides and are skipped).
func (h *RebalanceHarness) convergeAll(deadline time.Time) (int, error) {
	targets := append([]string(nil), h.sampled...)
	h.mu.Lock()
	for _, ins := range h.inserts {
		targets = append(targets, ins.uri)
	}
	h.mu.Unlock()
	converged := 0
	for _, uri := range targets {
		if code, _, err := h.fetchBody(h.oracleTS.URL, "/v1/related?obs="+url.QueryEscape(uri)); err == nil && code == http.StatusNotFound {
			continue
		}
		if err := h.converge(uri, deadline); err != nil {
			return converged, err
		}
		converged++
	}
	return converged, nil
}

// shardFor reads the current owner of a dataset off the gate's admin
// surface.
func (h *RebalanceHarness) shardFor(dataset string) (string, error) {
	code, body, err := h.fetchBody(h.gateBase(), "/v1/shardmap")
	if err != nil || code != http.StatusOK {
		return "", fmt.Errorf("GET /v1/shardmap: %d %v", code, err)
	}
	var m gate.ShardMap
	if err := json.Unmarshal(body, &m); err != nil {
		return "", err
	}
	for _, sc := range m.Shards {
		for _, ds := range sc.Datasets {
			if ds == dataset {
				return sc.Name, nil
			}
		}
	}
	return "", fmt.Errorf("dataset %s owned by no shard in epoch %d", dataset, m.Epoch)
}

// directHas asks a shard's server — past its proxy — whether it can
// answer for an observation URI.
func (h *RebalanceHarness) directHas(rs *rebShard, uri string) (bool, error) {
	code, _, err := h.fetchBody("http://"+rs.addr, "/v1/related?obs="+url.QueryEscape(uri))
	if err != nil {
		return false, err
	}
	switch code {
	case http.StatusOK:
		return true, nil
	case http.StatusNotFound, http.StatusBadRequest:
		// A shard answers 400 "unknown observation" for URIs it has never
		// seen — the same signal the gate's merge layer reads as "not on
		// this shard".
		return false, nil
	}
	return false, fmt.Errorf("direct read %s on %s: status %d", uri, rs.name, code)
}

// sourceShard returns the migration source's plumbing.
func (h *RebalanceHarness) sourceShard() *rebShard {
	for _, rs := range h.shards {
		if rs.name == h.sourceName {
			return rs
		}
	}
	return nil
}

// Run drives the power-cut-and-resume soak and checks every invariant.
func (h *RebalanceHarness) Run(t testing.TB) {
	t.Helper()
	defer h.Close()
	quarter := h.opt.round() / 4

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
	time.Sleep(quarter)
	checkWorkers("normal phase")

	// Phase 2: partition the TARGET, then start the migration into it —
	// the copy stalls against a blackholed spare while reads flow on.
	h.spare.proxy.Partition(true)
	if err := h.startMigration("rb1"); err != nil {
		fail("start migration: %v", err)
	}
	h.stalled.Store(true)
	h.logf("rebalance: migration rb1 started against a partitioned target")

	stallWindow := h.opt.round() / 2
	if stallWindow < time.Second {
		stallWindow = time.Second
	}
	time.Sleep(stallWindow)
	h.stalled.Store(false)
	checkWorkers("stall phase")

	// While stalled: pre-cutover, so the map must not have flipped and
	// clients must not have noticed the dark target.
	if epoch := h.g.Epoch(); epoch != 1 {
		fail("map flipped to epoch %d with the target partitioned", epoch)
	}
	if st, ok := h.migrationState("rb1"); !ok {
		fail("migration rb1 unknown to the gate")
	} else if st.Phase == gate.PhaseCutover || st.Phase == gate.PhaseDrain || st.Phase == gate.PhaseDone {
		fail("migration reached phase %s against a partitioned target", st.Phase)
	}
	if h.stalledOK.Load() == 0 {
		fail("no successful reads while the migration was stalled: a dark TARGET must be invisible pre-cutover")
	}

	// Phase 3: power-cut the gate with the migration in flight, heal the
	// target, and boot a successor from the fallen gate's map. Workers
	// keep hammering; their transport errors during the outage are the
	// point.
	lastMap := h.powerCutGate()
	h.logf("rebalance: gate power-cut at epoch %d", lastMap.Epoch)
	h.spare.proxy.Partition(false)
	if err := h.startGate(lastMap); err != nil {
		fail("restarting gate: %v", err)
	}
	resumed, err := h.g.ResumeMigrations()
	if err != nil {
		fail("ResumeMigrations: %v", err)
	}
	if len(resumed) != 1 {
		fail("ResumeMigrations resumed %d migrations, want 1", len(resumed))
	}
	h.logf("rebalance: successor gate resumed rb1 in phase %s", resumed[0].Phase())

	// The resumed migration must carry through to done under live
	// traffic: copy, catch-up, double-read, cutover, drain.
	waitBy := time.Now().Add(45 * time.Second)
	for {
		st, ok := h.migrationState("rb1")
		if ok && st.Phase == gate.PhaseDone {
			if st.Copied == 0 {
				fail("migration done with Copied == 0: the bootstrap never ran")
			}
			break
		}
		if ok && st.Phase == gate.PhaseAborted {
			fail("resumed migration aborted itself")
		}
		if time.Now().After(waitBy) {
			fail("migration stuck in phase %s (error %q) after resume", st.Phase, st.Error)
		}
		time.Sleep(20 * time.Millisecond)
	}
	checkWorkers("resume phase")

	// Cutover visible: epoch bumped, the moved dataset routed to the
	// spare, and a post-cutover insert lands on the spare's server —
	// never on the source's.
	if epoch := h.g.Epoch(); epoch != 2 {
		fail("post-migration epoch %d, want 2", epoch)
	}
	if owner, err := h.shardFor(h.moving[0]); err != nil || owner != "spare" {
		fail("dataset %s owned by %q (err %v), want spare", h.moving[0], owner, err)
	}
	postURI := "http://example.org/rebalance/post-cutover"
	postBody, err := h.insertMoving(postURI, time.Now().Add(10*time.Second))
	if err != nil {
		fail("post-cutover insert: %v", err)
	}
	if has, err := h.directHas(h.spare, postURI); err != nil || !has {
		fail("post-cutover insert not on the spare (has=%v err=%v)", has, err)
	}
	if has, err := h.directHas(h.sourceShard(), postURI); err != nil || has {
		fail("post-cutover insert leaked to the old source (has=%v err=%v)", has, err)
	}
	if err := h.mirrorIntoOracle(postURI, postBody); err != nil {
		fail("%v", err)
	}

	// Phase 4: let traffic settle on the new map, then stop and settle
	// the books.
	time.Sleep(quarter)
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatalf("late worker error: %v", err)
	default:
	}

	landed, err := h.reconcile(time.Now().Add(20 * time.Second))
	if err != nil {
		t.Fatalf("reconcile: %v", err)
	}
	converged, err := h.convergeAll(time.Now().Add(30 * time.Second))
	if err != nil {
		t.Fatalf("converge: %v", err)
	}
	if err := h.converge(postURI, time.Now().Add(10*time.Second)); err != nil {
		t.Fatal(err)
	}

	if h.reads.Load() == 0 || h.attempted.Load() == 0 {
		t.Fatalf("soak exercised nothing: %d reads, %d insert attempts", h.reads.Load(), h.attempted.Load())
	}
	st, _ := h.migrationState("rb1")
	h.logf("rebalance: soak complete: %d reads (%d while stalled), %d/%d inserts landed, %d URIs converged, migration copied %d pumped %d mismatches %d",
		h.reads.Load(), h.stalledOK.Load(), landed, h.attempted.Load(), converged,
		st.Copied, st.Pumped, st.Mismatches)
}

// RunRollback drives the abort story: the target stays partitioned, the
// migration is aborted while stuck in copy, and the source must remain
// fully authoritative.
func (h *RebalanceHarness) RunRollback(t testing.TB) {
	t.Helper()
	defer h.Close()

	if err := h.awaitReady("ready", time.Now().Add(10*time.Second)); err != nil {
		t.Fatalf("startup: %v", err)
	}

	// Permanent partition: the migration will never reach its target.
	h.spare.proxy.Partition(true)
	if err := h.startMigration("rb-abort"); err != nil {
		t.Fatalf("start migration: %v", err)
	}

	// Abort while the copy is still retrying against the blackhole. Poll
	// for the runner to be in copy, then pull the cord through the admin
	// surface.
	abortBy := time.Now().Add(5 * time.Second)
	for {
		if st, ok := h.migrationState("rb-abort"); ok && st.Phase == gate.PhaseCopy && st.Error == "" {
			break
		}
		if time.Now().After(abortBy) {
			st, _ := h.migrationState("rb-abort")
			t.Fatalf("migration never settled into copy: phase %s error %q", st.Phase, st.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp, err := h.client.Post(h.gateBase()+"/v1/migrations/rb-abort/abort", "application/json", nil)
	if err != nil {
		t.Fatalf("abort: %v", err)
	}
	rb, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("abort: status %d: %s", resp.StatusCode, rb)
	}

	// Rollback contract: epoch unchanged, ownership unchanged, the
	// aborted state persisted, and a later resume scan leaves it dead.
	if epoch := h.g.Epoch(); epoch != 1 {
		t.Fatalf("epoch %d after abort, want 1", epoch)
	}
	if owner, err := h.shardFor(h.moving[0]); err != nil || owner != h.sourceName {
		t.Fatalf("dataset %s owned by %q (err %v) after abort, want %s", h.moving[0], owner, err, h.sourceName)
	}
	if st, ok := h.migrationState("rb-abort"); !ok || st.Phase != gate.PhaseAborted {
		t.Fatalf("migration state after abort: %+v", st)
	}
	data, err := os.ReadFile(filepath.Join(h.stateDir, "rb-abort.json"))
	if err != nil || !bytes.Contains(data, []byte(`"aborted"`)) {
		t.Fatalf("aborted state file: %s (err %v)", data, err)
	}
	if resumed, err := h.g.ResumeMigrations(); err != nil || len(resumed) != 0 {
		t.Fatalf("resume scan revived the aborted migration: %d runners (err %v)", len(resumed), err)
	}

	// The source is still authoritative: a write to the migrating
	// dataset lands on the source's server, never the spare's, and the
	// gate's merged answer matches the oracle once mirrored.
	uri := "http://example.org/rebalance/after-abort"
	body, err := h.insertMoving(uri, time.Now().Add(10*time.Second))
	if err != nil {
		t.Fatalf("post-abort insert: %v", err)
	}
	if has, err := h.directHas(h.sourceShard(), uri); err != nil || !has {
		t.Fatalf("post-abort insert not on the source (has=%v err=%v)", has, err)
	}
	if has, err := h.directHas(h.spare, uri); err != nil || has {
		t.Fatalf("post-abort insert reached the partitioned spare (has=%v err=%v)", has, err)
	}
	if err := h.mirrorIntoOracle(uri, body); err != nil {
		t.Fatal(err)
	}
	// Heal before the equality check: while the spare is dark the gate
	// honestly flags every answer partial (it fans to all shards, even
	// empty ones), and byte-equality is only claimed of complete answers.
	h.spare.proxy.Partition(false)
	if err := h.converge(uri, time.Now().Add(15*time.Second)); err != nil {
		t.Fatal(err)
	}
	for _, s := range h.sampled[:4] {
		if err := h.converge(s, time.Now().Add(15*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	h.logf("rebalance: rollback verified: source %s stayed authoritative through an aborted migration", h.sourceName)
}
