package gate

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"rdfcube/internal/core"
	"rdfcube/internal/gen"
	"rdfcube/internal/leakcheck"
	"rdfcube/internal/obsv"
	"rdfcube/internal/qb"
	"rdfcube/internal/serve"
	"rdfcube/internal/snapshot"
)

// hostTransport routes requests to in-process handlers by URL host and
// injects per-host delay or transport failure — the scheduling knob the
// permutation tests turn.
type hostTransport struct {
	mu       sync.Mutex
	handlers map[string]http.Handler
	delay    map[string]time.Duration
	fail     map[string]bool
}

func newHostTransport() *hostTransport {
	return &hostTransport{
		handlers: map[string]http.Handler{},
		delay:    map[string]time.Duration{},
		fail:     map[string]bool{},
	}
}

func (t *hostTransport) add(host string, h http.Handler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.handlers[host] = h
}

func (t *hostTransport) setDelay(host string, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.delay[host] = d
}

func (t *hostTransport) setFail(host string, fail bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.fail[host] = fail
}

func (t *hostTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	host := req.URL.Host
	t.mu.Lock()
	h := t.handlers[host]
	d := t.delay[host]
	fail := t.fail[host]
	t.mu.Unlock()
	if fail || h == nil {
		return nil, fmt.Errorf("injected dial failure to %s", host)
	}
	if d > 0 {
		select {
		case <-time.After(d):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// buildShardServer computes the full relationship state over one corpus
// and serves it.
func buildShardServer(t testing.TB, c *qb.Corpus) *serve.Server {
	t.Helper()
	s, res, err := core.ComputeCorpusCtx(context.Background(), c, core.AlgorithmCubeMasking, core.Options{})
	if err != nil {
		t.Fatalf("compute: %v", err)
	}
	srv, err := serve.New(snapshot.New(s, res, nil), serve.Config{})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	t.Cleanup(srv.BeginShutdown)
	return srv
}

// fleet is the common test topology: three relationship-closed shards
// (each with a primary and an identical replica handler) plus an
// unsharded oracle over the combined corpus.
type fleet struct {
	tr      *hostTransport
	shards  []ShardConfig
	worlds  []*gen.ShardWorld
	oracle  *serve.Server
	obsURIs []string // a sample of observation URIs, one-ish per dataset
}

// buildFleet serves the worlds of one gen.ShardWorlds call from the shards
// and the combined corpus of a second, identical call from the oracle: a
// server appends its inserts to its datasets' observation lists, and the
// first call's worlds and combined corpus hold the same datasets.
func buildFleet(t *testing.T, seed int64) *fleet {
	t.Helper()
	cfg := gen.ShardWorldsConfig{Seed: seed, ObsPerDataset: 30}
	worlds, _ := gen.ShardWorlds(cfg)
	_, combined := gen.ShardWorlds(cfg)
	return newFleet(t, worlds, combined)
}

// assertOwnDatasets fails unless every corpus, one per server, holds
// *qb.Dataset values no other one holds.
func assertOwnDatasets(t *testing.T, corpora ...*qb.Corpus) {
	t.Helper()
	owner := map[*qb.Dataset]int{}
	for k, c := range corpora {
		for _, ds := range c.Datasets {
			if j, ok := owner[ds]; ok {
				t.Fatalf("servers %d and %d share dataset %s", j, k, ds.URI.Value)
			}
			owner[ds] = k
		}
	}
}

// newFleet serves each world from its own shard and combined from the
// oracle; no two of them may share a dataset.
func newFleet(t *testing.T, worlds []*gen.ShardWorld, combined *qb.Corpus) *fleet {
	t.Helper()
	corpora := []*qb.Corpus{combined}
	for _, w := range worlds {
		corpora = append(corpora, w.Corpus)
	}
	assertOwnDatasets(t, corpora...)
	f := &fleet{tr: newHostTransport(), worlds: worlds}
	for _, w := range worlds {
		srv := buildShardServer(t, w.Corpus)
		primary := "shard-" + w.Name + "-primary"
		replica := "shard-" + w.Name + "-replica"
		f.tr.add(primary, srv.Handler())
		f.tr.add(replica, srv.Handler())
		f.shards = append(f.shards, ShardConfig{
			Name:     w.Name,
			Primary:  "http://" + primary,
			Replica:  "http://" + replica,
			Datasets: w.Datasets,
		})
		for _, ds := range w.Corpus.Datasets {
			f.obsURIs = append(f.obsURIs, ds.Observations[0].URI.Value, ds.Observations[7].URI.Value)
		}
	}
	f.oracle = buildShardServer(t, combined)
	f.tr.add("oracle", f.oracle.Handler())
	return f
}

// newGate builds a gate over the fleet's three shards with probing off.
func (f *fleet) newGate(t *testing.T, mut func(*Config)) *Gate {
	t.Helper()
	cfg := Config{
		Shards:        f.shards,
		Transport:     f.tr,
		ProbeInterval: -1,
		Recorder:      obsv.NewCollector(),
	}
	if mut != nil {
		mut(&cfg)
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatalf("gate.New: %v", err)
	}
	t.Cleanup(g.Close)
	return g
}

// oracleGate wraps the combined-corpus server behind a 1-shard gate, so
// oracle responses go through the exact same merge/render path.
func (f *fleet) oracleGate(t *testing.T) *Gate {
	t.Helper()
	var datasets []string
	for _, w := range f.worlds {
		datasets = append(datasets, w.Datasets...)
	}
	g, err := New(Config{
		Shards:        []ShardConfig{{Name: "all", Primary: "http://oracle", Datasets: datasets}},
		Transport:     f.tr,
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatalf("oracle gate.New: %v", err)
	}
	t.Cleanup(g.Close)
	return g
}

func get(t *testing.T, h http.Handler, path string) (int, []byte) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

func relatedPath(uri string) string {
	return "/v1/related?obs=" + url.QueryEscape(uri)
}

// TestMergeMatchesOracle pins the headline invariant: the sharded gate's
// merged /v1/related is byte-identical to the unsharded oracle's, for
// every sampled observation and endpoint.
func TestMergeMatchesOracle(t *testing.T) {
	leakcheck.Check(t)
	f := buildFleet(t, 5)
	g := f.newGate(t, nil)
	og := f.oracleGate(t)
	gh, oh := g.Handler(), og.Handler()
	for _, uri := range f.obsURIs {
		for _, ep := range []string{"related", "contains", "complements"} {
			path := "/v1/" + ep + "?obs=" + url.QueryEscape(uri)
			gc, gb := get(t, gh, path)
			oc, ob := get(t, oh, path)
			if gc != oc {
				t.Fatalf("%s %s: gate %d, oracle %d", ep, uri, gc, oc)
			}
			if !bytes.Equal(gb, ob) {
				t.Fatalf("%s %s: gate body differs from oracle:\n gate:   %s\n oracle: %s", ep, uri, gb, ob)
			}
		}
	}
}

// TestGateMissesCrossShardPairs pins the gap in the sharding contract:
// the gate returns only the pairs inside the owning shard. A
// gen.RealWorld corpus split dataset-wise over three shards has
// relationships between shards (ShardWorlds are built to have none), and
// every one of them is missing from the gate's answer for its first
// endpoint. This is a change detector, not the contract we want: ROADMAP
// item 8 (a foreign row swept against every other shard's lattice) turns
// it into gate ≡ unsharded oracle.
func TestGateMissesCrossShardPairs(t *testing.T) {
	leakcheck.Check(t)
	corpus := gen.RealWorld(gen.RealWorldConfig{TotalObs: 1500, Seed: 7})
	oracle := gen.RealWorld(gen.RealWorldConfig{TotalObs: 1500, Seed: 7}) // datasets of its own
	const nShards = 3
	worlds := make([]*gen.ShardWorld, nShards)
	// shardOf is keyed by dataset URI: the oracle state read below is
	// decoded from its image, with *qb.Dataset values of its own.
	shardOf := map[string]int{}
	for k := range worlds {
		worlds[k] = &gen.ShardWorld{Name: fmt.Sprintf("g%d", k), Corpus: qb.NewCorpus(corpus.Hierarchies)}
	}
	for i, ds := range corpus.Datasets {
		w := worlds[i%nShards]
		w.Corpus.AddDataset(ds)
		w.Datasets = append(w.Datasets, ds.URI.Value)
		shardOf[ds.URI.Value] = i % nShards
	}
	f := newFleet(t, worlds, oracle)
	h := f.newGate(t, nil).Handler()

	// lists[i] holds the URIs the gate's /v1/related answer for observation
	// i names as its full, partial and complementarity partners.
	lists := map[int][3][]string{}
	answer := func(obs string, i int) [3][]string {
		if l, ok := lists[i]; ok {
			return l
		}
		code, body := get(t, h, relatedPath(obs))
		var a struct {
			Contains          []string `json:"contains"`
			PartiallyContains []struct {
				URI string `json:"uri"`
			} `json:"partiallyContains"`
			Complements []string `json:"complements"`
			Partial     bool     `json:"partial"`
		}
		if err := json.Unmarshal(body, &a); code != http.StatusOK || err != nil || a.Partial {
			t.Fatalf("gate related %s: status %d, %v: %.300s", obs, code, err, body)
		}
		l := [3][]string{a.Contains, nil, a.Complements}
		for _, r := range a.PartiallyContains {
			l[1] = append(l[1], r.URI)
		}
		lists[i] = l
		return l
	}

	image, err := f.oracle.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	held, err := snapshot.Read(bytes.NewReader(image))
	if err != nil {
		t.Fatal(err)
	}
	sp, res := held.Space, held.Result
	for k, rel := range []struct {
		name  string
		pairs []core.Pair
	}{{"full", res.FullSet}, {"partial", res.PartialSet}, {"compl", res.ComplSet}} {
		cross, found := 0, 0
		for _, p := range rel.pairs {
			a, b := sp.Obs[p.A], sp.Obs[p.B]
			if shardOf[a.Dataset.URI.Value] == shardOf[b.Dataset.URI.Value] {
				continue
			}
			cross++
			if slices.Contains(answer(a.URI.Value, p.A)[k], b.URI.Value) {
				found++
			}
		}
		t.Logf("%s: %d of %d oracle pairs cross shards, %d of those in the gate's answer", rel.name, cross, len(rel.pairs), found)
		if found != 0 {
			t.Errorf("%s: the gate found %d cross-shard pairs; if cross-shard reads landed, turn this test into equality with the oracle", rel.name, found)
		}
		if cross == 0 {
			t.Errorf("%s: no pair crosses shards; the split exercises nothing", rel.name)
		}
	}
}

// TestMergeReplyOrderPermutation proves arrival-order independence: any
// assignment of per-shard delays yields byte-identical merged bodies.
func TestMergeReplyOrderPermutation(t *testing.T) {
	leakcheck.Check(t)
	f := buildFleet(t, 9)
	g := f.newGate(t, nil)
	h := g.Handler()

	baseline := map[string][]byte{}
	for _, uri := range f.obsURIs {
		_, body := get(t, h, relatedPath(uri))
		baseline[uri] = body
	}

	perms := [][3]time.Duration{
		{0, 30 * time.Millisecond, 60 * time.Millisecond},
		{60 * time.Millisecond, 0, 30 * time.Millisecond},
		{30 * time.Millisecond, 60 * time.Millisecond, 0},
	}
	for pi, perm := range perms {
		for wi, w := range f.worlds {
			f.tr.setDelay("shard-"+w.Name+"-primary", perm[wi])
			f.tr.setDelay("shard-"+w.Name+"-replica", perm[wi])
		}
		for _, uri := range f.obsURIs {
			_, body := get(t, h, relatedPath(uri))
			if !bytes.Equal(body, baseline[uri]) {
				t.Fatalf("perm %d: %s: body differs under shard delays %v:\n got:  %s\n want: %s",
					pi, uri, perm, body, baseline[uri])
			}
		}
	}
}

// TestMergeHedgeWinnerIndependence proves the other half of the
// determinism contract: whether the primary or the hedged replica wins,
// the merged bytes are identical — and the hedge counters move.
func TestMergeHedgeWinnerIndependence(t *testing.T) {
	leakcheck.Check(t)
	f := buildFleet(t, 13)
	g := f.newGate(t, func(c *Config) {
		c.HedgeMin = 10 * time.Millisecond
		c.HedgeMax = 10 * time.Millisecond // hedge fires fast and always
	})
	h := g.Handler()

	baseline := map[string][]byte{}
	for _, uri := range f.obsURIs {
		_, body := get(t, h, relatedPath(uri))
		baseline[uri] = body
	}

	// Make every primary slower than the hedge delay + replica: the
	// replica wins every race.
	for _, w := range f.worlds {
		f.tr.setDelay("shard-"+w.Name+"-primary", 150*time.Millisecond)
	}
	for _, uri := range f.obsURIs {
		_, body := get(t, h, relatedPath(uri))
		if !bytes.Equal(body, baseline[uri]) {
			t.Fatalf("%s: body differs when replica wins the hedge:\n got:  %s\n want: %s",
				uri, body, baseline[uri])
		}
	}
	if fired, won := g.rec.Counter(CtrHedgeFired).Load(), g.rec.Counter(CtrHedgeWon).Load(); fired == 0 || won == 0 {
		t.Fatalf("hedge counters did not move: fired=%d won=%d", fired, won)
	}
}

// TestPartialContract: with one shard's two targets unreachable, reads
// still answer 200 with "partial": true naming the missing shard; an
// observation living ON the dead shard yields a partial-qualified 404;
// a shard whose targets respond without answering counts the same; with
// every shard unreachable the gate answers 503.
func TestPartialContract(t *testing.T) {
	leakcheck.Check(t)
	f := buildFleet(t, 21)
	g := f.newGate(t, func(c *Config) {
		c.BreakerThreshold = 1000 // keep breakers out of this test
	})
	h := g.Handler()

	dead := f.worlds[1]
	f.tr.setFail("shard-"+dead.Name+"-primary", true)
	f.tr.setFail("shard-"+dead.Name+"-replica", true)

	aliveURI := f.worlds[0].Corpus.Datasets[0].Observations[0].URI.Value
	code, body := get(t, h, relatedPath(aliveURI))
	if code != http.StatusOK {
		t.Fatalf("read with one dead shard: status %d body %s", code, body)
	}
	var resp relatedResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !resp.Partial || len(resp.MissingShards) != 1 || resp.MissingShards[0] != dead.Name {
		t.Fatalf("partial contract violated: partial=%v missing=%v", resp.Partial, resp.MissingShards)
	}

	deadURI := dead.Corpus.Datasets[0].Observations[0].URI.Value
	code, body = get(t, h, relatedPath(deadURI))
	if code != http.StatusNotFound {
		t.Fatalf("read of dead shard's obs: status %d body %s", code, body)
	}
	var eresp errorResponse
	if err := json.Unmarshal(body, &eresp); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !eresp.Partial || len(eresp.MissingShards) != 1 {
		t.Fatalf("404 should be partial-qualified: %s", body)
	}

	// A shard that answers without answering the question — sheds the read
	// with 429, or sends a 200 cut short — is as missing as a dead one: the
	// next target is asked, and when none answers the merge says so instead
	// of passing the survivors' lists off as complete.
	f.tr.setFail("shard-"+dead.Name+"-primary", false)
	f.tr.setFail("shard-"+dead.Name+"-replica", false)
	shed := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		io.WriteString(w, `{"error":"too many in-flight requests"}`)
	})
	real := f.tr.handlers["shard-"+dead.Name+"-primary"]
	cut := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		real.ServeHTTP(rec, r)
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes()[:rec.Body.Len()/2])
	})
	_, complete := get(t, h, relatedPath(deadURI))
	for _, c := range []struct {
		what             string
		primary, replica http.Handler
		uri              string
		wantCode         int
		wantMissing      bool
	}{
		{"owner sheds on its primary only", shed, real, deadURI, http.StatusOK, false},
		{"owner sheds on both targets", shed, shed, deadURI, http.StatusNotFound, true},
		{"non-owner sheds on both targets", shed, shed, aliveURI, http.StatusOK, true},
		{"owner's 200 is cut short on both targets", cut, cut, deadURI, http.StatusNotFound, true},
		{"non-owner's 400 is cut short on both targets", cut, cut, aliveURI, http.StatusOK, true},
	} {
		f.tr.add("shard-"+dead.Name+"-primary", c.primary)
		f.tr.add("shard-"+dead.Name+"-replica", c.replica)
		code, body := get(t, h, relatedPath(c.uri))
		var resp relatedResponse // errorResponse's partial/missingShards decode into it too
		if err := json.Unmarshal(body, &resp); err != nil || code != c.wantCode {
			t.Fatalf("%s: status %d (want %d) body %s (err %v)", c.what, code, c.wantCode, body, err)
		}
		if missing := len(resp.MissingShards) == 1 && resp.MissingShards[0] == dead.Name; resp.Partial != c.wantMissing || missing != c.wantMissing {
			t.Fatalf("%s: partial=%v missingShards=%v, want missing %v: %s", c.what, resp.Partial, resp.MissingShards, c.wantMissing, body)
		}
		if c.wantCode == http.StatusOK && !c.wantMissing && !bytes.Equal(body, complete) {
			t.Fatalf("%s: the replica's answer differs from the complete one:\n got:  %s\n want: %s", c.what, body, complete)
		}
	}
	if _, streak := f.shardByName(g, dead.Name).primary.breaker.Snapshot(); streak != 0 {
		t.Fatalf("429s and cut bodies fed the breaker: failure streak %d", streak)
	}
	f.tr.add("shard-"+dead.Name+"-primary", real)
	f.tr.add("shard-"+dead.Name+"-replica", real)

	for _, w := range f.worlds {
		f.tr.setFail("shard-"+w.Name+"-primary", true)
		f.tr.setFail("shard-"+w.Name+"-replica", true)
	}
	code, body = get(t, h, relatedPath(aliveURI))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("read with zero shards: status %d body %s", code, body)
	}
	if !strings.Contains(string(body), "no shards reachable") {
		t.Fatalf("503 body: %s", body)
	}
}

// TestGateAnswersItsOwnDeadline: a read whose shards stall past the
// request deadline gets the gate's own structured answer — partial, naming
// the missing shards — and not a canned timeout body. MergeReserve is cut
// to nothing so the shard calls run to the inbound deadline itself.
func TestGateAnswersItsOwnDeadline(t *testing.T) {
	leakcheck.Check(t)
	f := buildFleet(t, 21)
	g := f.newGate(t, func(c *Config) {
		c.RequestTimeout = 100 * time.Millisecond
		c.MergeReserve = time.Nanosecond
		c.BreakerThreshold = 1000 // keep breakers out of this test
	})
	h := g.Handler()
	stall := func(w *gen.ShardWorld) {
		f.tr.setDelay("shard-"+w.Name+"-primary", time.Minute)
		f.tr.setDelay("shard-"+w.Name+"-replica", time.Minute)
	}

	stall(f.worlds[1])
	code, body := get(t, h, relatedPath(f.worlds[0].Corpus.Datasets[0].Observations[0].URI.Value))
	var resp relatedResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("status %d, body not an answer: %v (%s)", code, err, body)
	}
	if code != http.StatusOK || !resp.Partial || len(resp.MissingShards) != 1 || resp.MissingShards[0] != f.worlds[1].Name {
		t.Fatalf("one stalled shard: status %d, partial %v, missing %v; want 200 partial missing [%s]",
			code, resp.Partial, resp.MissingShards, f.worlds[1].Name)
	}

	for _, w := range f.worlds {
		stall(w)
	}
	code, body = get(t, h, relatedPath(f.worlds[0].Corpus.Datasets[0].Observations[0].URI.Value))
	var eresp errorResponse
	if err := json.Unmarshal(body, &eresp); err != nil {
		t.Fatalf("status %d, body not JSON: %v (%s)", code, err, body)
	}
	if code != http.StatusServiceUnavailable || !eresp.Partial || len(eresp.MissingShards) != len(f.worlds) {
		t.Fatalf("every shard stalled: status %d body %s; want 503 partial with every shard missing", code, body)
	}
}

// TestBreakerTripsAndHalfOpenRecovers: repeated failures trip a
// target's breaker open (the shard drops out of the fan-out without
// paying the timeout), and after the backoff a request probes it back
// closed.
func TestBreakerTripsAndHalfOpenRecovers(t *testing.T) {
	leakcheck.Check(t)
	f := buildFleet(t, 33)
	g := f.newGate(t, func(c *Config) {
		c.BreakerThreshold = 2
		c.BreakerBackoff = 20 * time.Millisecond
	})
	h := g.Handler()
	dead := f.worlds[2]
	f.tr.setFail("shard-"+dead.Name+"-primary", true)
	f.tr.setFail("shard-"+dead.Name+"-replica", true)

	uri := f.worlds[0].Corpus.Datasets[0].Observations[0].URI.Value
	for i := 0; i < 4; i++ {
		get(t, h, relatedPath(uri))
	}
	if state, _ := f.shardByName(g, dead.Name).primary.breaker.Snapshot(); state != "open" {
		t.Fatalf("primary breaker after repeated failures: %s", state)
	}

	f.tr.setFail("shard-"+dead.Name+"-primary", false)
	f.tr.setFail("shard-"+dead.Name+"-replica", false)
	time.Sleep(350 * time.Millisecond) // past the (jittered, doubled) backoff
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, body := get(t, h, relatedPath(uri))
		var resp relatedResponse
		if json.Unmarshal(body, &resp) == nil && !resp.Partial {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard never recovered after heal: %s", body)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func (f *fleet) shardByName(g *Gate, name string) *shard {
	return g.table().byName[name]
}

// TestWriteRoutingAndReadBack: an insert routes to the dataset's owner
// shard and the new observation is queryable through the gate.
func TestWriteRoutingAndReadBack(t *testing.T) {
	leakcheck.Check(t)
	f := buildFleet(t, 41)
	g := f.newGate(t, nil)
	h := g.Handler()

	src := f.worlds[1].Corpus.Datasets[0]
	o := src.Observations[3]
	dims := map[string]string{}
	for k, d := range src.Schema.Dimensions {
		dims[d.Value] = o.DimValues[k].Value
	}
	measures := map[string]string{}
	for _, m := range src.Schema.Measures {
		measures[m.Value] = "12345"
	}
	newURI := "http://example.org/gate-test/obs/1"
	body, _ := json.Marshal(map[string]any{
		"dataset":    src.URI.Value,
		"uri":        newURI,
		"dimensions": dims,
		"measures":   measures,
	})
	req := httptest.NewRequest("POST", "/v1/observations", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusCreated {
		t.Fatalf("insert: status %d body %s", rec.Code, rec.Body.String())
	}

	code, rbody := get(t, h, relatedPath(newURI))
	if code != http.StatusOK {
		t.Fatalf("read-back: status %d body %s", code, rbody)
	}
	var resp relatedResponse
	if err := json.Unmarshal(rbody, &resp); err != nil || resp.URI != newURI {
		t.Fatalf("read-back body: %s (err %v)", rbody, err)
	}
	// The twin-valued insert complements its source observation.
	foundTwin := false
	for _, u := range resp.Complements {
		if u == o.URI.Value {
			foundTwin = true
		}
	}
	if !foundTwin {
		t.Fatalf("inserted twin does not complement its source: %s", rbody)
	}

	// Unknown dataset → 400, no shard consulted.
	bad, _ := json.Marshal(map[string]any{"dataset": "http://example.org/nope", "uri": "http://x/y"})
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/observations", bytes.NewReader(bad)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown dataset: status %d", rec.Code)
	}
}

// retryScript answers scripted statuses, then defers to a final handler.
type retryScript struct {
	mu      sync.Mutex
	scripts []func(w http.ResponseWriter)
	final   http.Handler
	calls   int
}

func (s *retryScript) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	i := s.calls
	s.calls++
	s.mu.Unlock()
	if i < len(s.scripts) {
		s.scripts[i](w)
		return
	}
	s.final.ServeHTTP(w, r)
}

// TestWriteRetriesHonorRetryAfterAndLeader: a 429 with Retry-After is
// retried after the (capped) hint; a 503 with a Leader header redirects
// the retry to the named leader.
func TestWriteRetriesHonorRetryAfterAndLeader(t *testing.T) {
	leakcheck.Check(t)
	f := buildFleet(t, 55)
	shardSrv := f.tr.handlers["shard-g0-primary"]

	script := &retryScript{
		scripts: []func(http.ResponseWriter){
			func(w http.ResponseWriter) {
				w.Header().Set("Retry-After", "1")
				w.WriteHeader(http.StatusTooManyRequests)
				io.WriteString(w, `{"error":"too many in-flight requests"}`)
			},
			func(w http.ResponseWriter) {
				w.Header().Set(serve.LeaderHeader, "http://leader-g0")
				w.WriteHeader(http.StatusServiceUnavailable)
				io.WriteString(w, `{"error":"not the leader"}`)
			},
		},
	}
	f.tr.add("flaky-g0", script)
	f.tr.add("leader-g0", shardSrv)

	cfg := f.shards
	cfg[0].Primary = "http://flaky-g0"
	g := f.newGate(t, func(c *Config) {
		c.Shards = cfg
		c.WriteRetryBase = 5 * time.Millisecond
		c.MaxRetryWait = 20 * time.Millisecond // cap the 1s Retry-After hint
	})
	h := g.Handler()

	src := f.worlds[0].Corpus.Datasets[0]
	o := src.Observations[0]
	dims := map[string]string{}
	for k, d := range src.Schema.Dimensions {
		dims[d.Value] = o.DimValues[k].Value
	}
	body, _ := json.Marshal(map[string]any{
		"dataset":    src.URI.Value,
		"uri":        "http://example.org/gate-test/retry/1",
		"dimensions": dims,
		"measures":   map[string]string{src.Schema.Measures[0].Value: "7"},
	})
	start := time.Now()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/observations", bytes.NewReader(body)))
	if rec.Code != http.StatusCreated {
		t.Fatalf("retried insert: status %d body %s", rec.Code, rec.Body.String())
	}
	if script.calls != 2 {
		t.Fatalf("scripted target saw %d calls, want 2 (429 then 503+Leader)", script.calls)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("retry waited out the full 1s hint despite the cap: %v", d)
	}
}

// TestStatsExposesFleetHealth sanity-checks /v1/stats' shape.
func TestStatsExposesFleetHealth(t *testing.T) {
	leakcheck.Check(t)
	f := buildFleet(t, 61)
	g := f.newGate(t, nil)
	h := g.Handler()
	get(t, h, relatedPath(f.obsURIs[0])) // generate some upstream traffic

	code, body := get(t, h, "/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	var resp statsResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("stats unmarshal: %v", err)
	}
	if resp.Role != "gate" || len(resp.Shards) != 3 || resp.AvailableShards != 3 {
		t.Fatalf("stats: %s", body)
	}
	for _, ss := range resp.Shards {
		if len(ss.Targets) != 2 {
			t.Fatalf("shard %s: %d targets", ss.Name, len(ss.Targets))
		}
		for _, ts := range ss.Targets {
			if ts.Breaker == "" || ts.URL == "" {
				t.Fatalf("target stats incomplete: %+v", ts)
			}
		}
	}
	if resp.Shards[0].Targets[0].Latency == nil {
		t.Fatalf("primary latency histogram missing after traffic: %s", body)
	}
}

// TestProbeMarksPartitionedShard: the prober flips health and trips the
// breaker for an unreachable target, and readyz degrades accordingly.
func TestProbeMarksPartitionedShard(t *testing.T) {
	leakcheck.Check(t)
	f := buildFleet(t, 71)
	g := f.newGate(t, func(c *Config) {
		c.ProbeInterval = 20 * time.Millisecond
		c.BreakerThreshold = 2
	})
	h := g.Handler()

	f.tr.setFail("shard-g1-primary", true)
	f.tr.setFail("shard-g1-replica", true)
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, body := get(t, h, "/readyz")
		if code == http.StatusOK && strings.Contains(string(body), `"degraded"`) &&
			strings.Contains(string(body), `"g1"`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("readyz never degraded: %d %s", code, body)
		}
		time.Sleep(10 * time.Millisecond)
	}

	f.tr.setFail("shard-g1-primary", false)
	f.tr.setFail("shard-g1-replica", false)
	deadline = time.Now().Add(5 * time.Second)
	for {
		code, body := get(t, h, "/readyz")
		if code == http.StatusOK && strings.Contains(string(body), `"ready"`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("readyz never recovered: %d %s", code, body)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGateRequiresObsURI: a missing ?obs= is a 400 without fan-out.
func TestGateRequiresObsURI(t *testing.T) {
	leakcheck.Check(t)
	f := buildFleet(t, 81)
	g := f.newGate(t, nil)
	code, body := get(t, g.Handler(), "/v1/related")
	if code != http.StatusBadRequest {
		t.Fatalf("missing obs: status %d body %s", code, body)
	}
}

// TestConfigValidation rejects broken shard maps.
func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{},
		{Shards: []ShardConfig{{Name: "", Primary: "http://x"}}},
		{Shards: []ShardConfig{{Name: "a", Primary: ""}}},
		{Shards: []ShardConfig{{Name: "a", Primary: "http://x"}, {Name: "a", Primary: "http://y"}}},
		{Shards: []ShardConfig{
			{Name: "a", Primary: "http://x", Datasets: []string{"d1"}},
			{Name: "b", Primary: "http://y", Datasets: []string{"d1"}},
		}},
	}
	for i, cfg := range cases {
		cfg.ProbeInterval = -1
		if g, err := New(cfg); err == nil {
			g.Close()
			t.Fatalf("case %d: invalid config accepted", i)
		} else if errors.Is(err, io.EOF) {
			t.Fatalf("case %d: nonsense error: %v", i, err)
		}
	}
}
