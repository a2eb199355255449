package gate

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"rdfcube/internal/front"
	"rdfcube/internal/gen"
	"rdfcube/internal/obsv"
)

// tracesOf reads base's /debug/traces?id=id.
func tracesOf(t *testing.T, base, id string) []front.Trace {
	t.Helper()
	resp, err := http.Get(base + "/debug/traces?id=" + url.QueryEscape(id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct{ Traces []front.Trace }
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("%s/debug/traces: %v", base, err)
	}
	return body.Traces
}

// TestRequestIDFollowsIntoShards: over real sockets, a read sent to the
// gate with an X-Request-Id is filed under that ID in the gate's trace
// ring, and under <id>.<shard>.0 in every shard's ring — each shard
// answers a fan-out read, the owner with the answer and the others with
// their unknown-observation 400 — and an insert under <id>.<shard>.0 in
// the owner's. A client's ID of 128 bytes still reaches the shards whole.
func TestRequestIDFollowsIntoShards(t *testing.T) {
	worlds, _ := gen.ShardWorlds(gen.ShardWorldsConfig{Seed: 5, ObsPerDataset: 12})
	var shards []ShardConfig
	base := map[string]string{}
	for _, w := range worlds {
		ts := httptest.NewServer(buildShardServer(t, w.Corpus).Handler())
		t.Cleanup(ts.Close)
		base[w.Name] = ts.URL
		shards = append(shards, ShardConfig{Name: w.Name, Primary: ts.URL, Datasets: w.Datasets})
	}
	g, err := New(Config{Shards: shards, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	gts := httptest.NewServer(g.Handler())
	t.Cleanup(gts.Close)

	do := func(id string, req *http.Request) {
		t.Helper()
		req.Header.Set(front.TraceIDHeader, id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode >= 300 || resp.Header.Get(front.TraceIDHeader) != id {
			t.Fatalf("%s %s: status %d, echoed ID %q", req.Method, req.URL.Path, resp.StatusCode, resp.Header.Get(front.TraceIDHeader))
		}
		if got := tracesOf(t, gts.URL, id); len(got) != 1 {
			t.Fatalf("the gate's ring holds %d traces under %q, want 1", len(got), id)
		}
	}
	inShard := func(id, shard string) {
		t.Helper()
		want := id + "." + shard + ".0"
		if got := tracesOf(t, base[shard], want); len(got) != 1 {
			t.Errorf("shard %s's ring holds %d traces under %q, want 1", shard, len(got), want)
		}
	}

	for _, id := range []string{"gate-read-1", strings.Repeat("r", 128)} {
		obs := worlds[1].Corpus.Datasets[0].Observations[2].URI.Value
		req, _ := http.NewRequest("GET", gts.URL+relatedPath(obs), nil)
		do(id, req)
		for _, w := range worlds {
			inShard(id, w.Name)
		}
	}

	src := worlds[2].Corpus.Datasets[0]
	o := src.Observations[0]
	dims := map[string]string{}
	for k, d := range src.Schema.Dimensions {
		dims[d.Value] = o.DimValues[k].Value
	}
	body, _ := json.Marshal(map[string]any{
		"dataset":    src.URI.Value,
		"uri":        "http://example.org/gate-trace/obs/1",
		"dimensions": dims,
		"measures":   map[string]string{src.Schema.Measures[0].Value: "7"},
	})
	id := strings.Repeat("w", 128)
	req, _ := http.NewRequest("POST", gts.URL+"/v1/observations", bytes.NewReader(body))
	do(id, req)
	inShard(id, worlds[2].Name)
}

// panicTransport panics in every upstream call, as a bug on the write
// path would: the insert handler makes its shard call on the request's
// goroutine.
type panicTransport struct{}

func (panicTransport) RoundTrip(*http.Request) (*http.Response, error) { panic("upstream bug") }

// TestGatePanicContained: a panic on a gate route answers 500 with the
// request's trace ID in the body, counts gate.panics, and lands in the
// trace ring.
func TestGatePanicContained(t *testing.T) {
	col := obsv.NewCollector()
	g, err := New(Config{
		Shards:        []ShardConfig{{Name: "a", Primary: "http://a", Datasets: []string{"d"}}},
		Transport:     panicTransport{},
		Recorder:      col,
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	h := g.Handler()
	req := httptest.NewRequest("POST", "/v1/observations", strings.NewReader(`{"dataset":"d"}`))
	req.Header.Set(front.TraceIDHeader, "boom-1")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || rec.Code != http.StatusInternalServerError || body["traceId"] != "boom-1" {
		t.Fatalf("status %d, body %q (%v); want 500 with traceId boom-1", rec.Code, rec.Body.String(), err)
	}
	if n := col.Snapshot()[CtrPanics]; n != 1 {
		t.Errorf("%s = %d, want 1", CtrPanics, n)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?id=boom-1", nil))
	var ring struct{ Traces []front.Trace }
	if err := json.Unmarshal(rec.Body.Bytes(), &ring); err != nil || len(ring.Traces) != 1 || ring.Traces[0].Status != http.StatusInternalServerError {
		t.Fatalf("ring under boom-1: %s (%v)", rec.Body.String(), err)
	}
}

// TestFrontAllocationBudget: what the HTTP layer around a gate route —
// the deadline and the front — allocates per request, as the full stack
// minus the bare handler on /healthz. The gate's own wrapper cost 6 (12
// against 6); the front, with its trace ID, span tree and ring entry,
// measures 25 (31 against 6), the bound serve's layer is held to too.
func TestFrontAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under -race")
	}
	g := cannedGate(t, nil, false)
	w := &discardWriter{h: http.Header{}}
	r := httptest.NewRequest("GET", "/healthz", nil)
	full, bare := g.Handler(), http.HandlerFunc(g.handleHealthz)
	layer := testing.AllocsPerRun(200, func() { full.ServeHTTP(w, r) }) -
		testing.AllocsPerRun(200, func() { bare.ServeHTTP(w, r) })
	t.Logf("the layer around /healthz allocates %.0f times a request", layer)
	const budget = 27
	if layer > budget {
		t.Errorf("the layer around /healthz allocates %.0f times a request, want ≤ %d", layer, budget)
	}
}
