package gate

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"rdfcube/internal/gen"
	"rdfcube/internal/leakcheck"
	"rdfcube/internal/qb"
	"rdfcube/internal/rdf"
	"rdfcube/internal/wire"
)

var readRoutes = []string{"related", "contains", "complements"}

// shardBodies asks every shard of the fleet directly for uri's /v1/related
// and returns the 200 bodies in shard-map order — the reflective oracle's
// input. Shards whose name is in dark are not asked.
func (f *fleet) shardBodies(t *testing.T, uri string, dark map[string]bool) [][]byte {
	t.Helper()
	var bodies [][]byte
	for _, sh := range f.shards {
		if dark[sh.Name] {
			continue
		}
		code, body := get(t, f.tr.handlers[strings.TrimPrefix(sh.Primary, "http://")], relatedPath(uri))
		switch code {
		case http.StatusOK:
			bodies = append(bodies, body)
		case http.StatusBadRequest:
		default:
			t.Fatalf("shard %s: %s: status %d: %s", sh.Name, uri, code, body)
		}
	}
	return bodies
}

// assertMatchesReflective compares, for every observation of the fleet and
// each read route, the gate's answer with the reflective merge of the
// shards' bodies; with dark shards an observation they own must be a
// partial-qualified 404.
func assertMatchesReflective(t *testing.T, what string, f *fleet, h http.Handler, dark ...string) {
	t.Helper()
	darkSet := map[string]bool{}
	for _, name := range dark {
		darkSet[name] = true
	}
	answers, neighbours := 0, 0
	for _, w := range f.worlds {
		for _, o := range w.Corpus.Observations() {
			uri := o.URI.Value
			bodies := f.shardBodies(t, uri, darkSet)
			for _, route := range readRoutes {
				code, got := get(t, h, "/v1/"+route+"?obs="+url.QueryEscape(uri))
				if len(bodies) == 0 {
					if code != http.StatusNotFound || len(dark) == 0 || !bytes.Contains(got, []byte(`"partial":true`)) {
						t.Fatalf("%s: %s %q: status %d body %s, want a partial-qualified 404", what, route, uri, code, got)
					}
					continue
				}
				if code != http.StatusOK {
					t.Fatalf("%s: %s %q: status %d: %s", what, route, uri, code, got)
				}
				if want := oracleMerge(t, route, bodies, dark); !bytes.Equal(got, want) {
					t.Fatalf("%s: %s %q: body differs from the reflective merge\n got: %q\nwant: %q", what, route, uri, got, want)
				}
				answers++
				neighbours += bytes.Count(got, []byte(`"http`))
			}
		}
	}
	if answers == 0 || neighbours <= answers {
		t.Fatalf("%s: degenerate fixture: %d answers naming %d URIs", what, answers, neighbours)
	}
}

// TestMergeMatchesReflectiveMerge: the scan + sort/compact + append read
// path answers, byte for byte, what the reflective merge answered — every
// observation, all three routes, the fleet whole and with one shard dark.
func TestMergeMatchesReflectiveMerge(t *testing.T) {
	leakcheck.Check(t)
	f := buildFleet(t, 17)
	g := f.newGate(t, func(c *Config) {
		c.BreakerThreshold = 1000 // keep the dark shard in the fan-out: missing, not skipped
	})
	h := g.Handler()
	assertMatchesReflective(t, "whole fleet", f, h)

	dark := f.worlds[1].Name
	f.tr.setFail("shard-"+dark+"-primary", true)
	f.tr.setFail("shard-"+dark+"-replica", true)
	assertMatchesReflective(t, "one shard dark", f, h, dark)
}

// TestMergeHostileURIs: observation URIs that need every escaping rule
// survive the shard's writer, the gate's scanner (the decoding slow path)
// and the gate's writer with the reflective merge's bytes. (The '#' keeps
// the empty hostile string from yielding a bare number, which a shard
// would resolve as a local index.)
func TestMergeHostileURIs(t *testing.T) {
	leakcheck.Check(t)
	// A combined corpus holds its call's observations, so renaming them
	// renames the worlds' of the first call and the oracle's of the second.
	rename := func(combined *qb.Corpus) {
		for k, o := range combined.Observations() {
			o.URI = rdf.NewIRI(wire.HostileStrings[k%len(wire.HostileStrings)] + "#" + strconv.Itoa(k))
		}
	}
	cfg := gen.ShardWorldsConfig{Seed: 19, ObsPerDataset: 20}
	worlds, shared := gen.ShardWorlds(cfg)
	_, combined := gen.ShardWorlds(cfg)
	rename(shared)
	rename(combined)
	f := newFleet(t, worlds, combined)
	if f.worlds[0].Corpus.Datasets[0].Observations[1].URI.Value != wire.HostileStrings[1]+"#1" {
		t.Fatal("the worlds do not share their combined corpus' observations")
	}
	assertMatchesReflective(t, "hostile URIs", f, f.newGate(t, nil).Handler())
}

// cannedShards serves fixed /v1/related-shaped bodies, one per shard, to a
// gate over as many replica-less shards; an empty body stands for "unknown
// observation".
func cannedShards(t *testing.T, bodies ...string) *Gate {
	t.Helper()
	tr := newHostTransport()
	var shards []ShardConfig
	for i, body := range bodies {
		host := "canned-" + strconv.Itoa(i)
		tr.add(host, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if body == "" {
				w.WriteHeader(http.StatusBadRequest)
				io.WriteString(w, `{"error":"unknown observation \"x\""}`)
				return
			}
			io.WriteString(w, body)
		}))
		shards = append(shards, ShardConfig{Name: "s" + strconv.Itoa(i), Primary: "http://" + host, Datasets: []string{"d" + strconv.Itoa(i)}})
	}
	g, err := New(Config{Shards: shards, Transport: tr, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

// TestMergeDuplicateNeighbours: two shards naming the same neighbour URI —
// never the case over relationship-closed shards, but the merge is total —
// yield one entry, with the larger degree whichever shard held it, as the
// reflective merge's maps did.
func TestMergeDuplicateNeighbours(t *testing.T) {
	leakcheck.Check(t)
	const (
		low = `{"obs":3,"uri":"http://x/o","contains":[{"obs":1,"uri":"http://x/b"},{"obs":2,"uri":"http://x/a"}],"containedBy":[],` +
			`"partiallyContains":[{"obs":4,"uri":"http://x/p","degree":0.25},{"obs":5,"uri":"http://x/same","degree":0.5}],` +
			`"partiallyContainedBy":[{"obs":4,"uri":"http://x/p","degree":1}],"complements":[{"obs":9,"uri":"http://x/c"}]}`
		high = `{"complements":[{"obs":0,"uri":"http://x/c"},{"obs":1,"uri":"http://x/d"}],"containedBy":[],"contains":[{"obs":7,"uri":"http://x/a"}],` +
			`"obs":0,"partiallyContainedBy":[{"obs":2,"uri":"http://x/p","degree":0.3333333333333333}],` +
			`"partiallyContains":[{"obs":2,"uri":"http://x/p","degree":0.75},{"obs":3,"uri":"http://x/same","degree":0.5}],"uri":"http://x/o"}`
		want = `{"uri":"http://x/o","contains":["http://x/a","http://x/b"],"containedBy":[],` +
			`"partiallyContains":[{"uri":"http://x/p","degree":0.75},{"uri":"http://x/same","degree":0.5}],` +
			`"partiallyContainedBy":[{"uri":"http://x/p","degree":1}],"complements":["http://x/c","http://x/d"],"partial":false}` + "\n"
	)
	for _, order := range [][]string{{low, "", high}, {high, low, ""}} {
		h := cannedShards(t, order...).Handler()
		var bodies [][]byte
		for _, body := range order {
			if body != "" {
				bodies = append(bodies, []byte(body))
			}
		}
		for _, route := range readRoutes {
			code, got := get(t, h, "/v1/"+route+"?obs=http://x/o")
			if oracle := oracleMerge(t, route, bodies, nil); code != http.StatusOK || !bytes.Equal(got, oracle) {
				t.Fatalf("%s: status %d body %q, the reflective merge writes %q", route, code, got, oracle)
			}
			if route == "related" && string(got) != want {
				t.Fatalf("related: %q, want %q", got, want)
			}
		}
	}
}

// cannedTransport answers from memory with a constant number of
// allocations, whatever the body's size.
type cannedTransport map[string][]byte // host -> 200 body; absent = unknown observation

func (c cannedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	status, body := http.StatusOK, c[req.URL.Host]
	if body == nil {
		status, body = http.StatusBadRequest, []byte(`{"error":"unknown observation \"x\""}`)
	}
	return &http.Response{StatusCode: status, Body: io.NopCloser(bytes.NewReader(body)), Request: req}, nil
}

// discardWriter is a ResponseWriter that allocates nothing per request.
type discardWriter struct {
	h http.Header
	n int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(int)             {}
func (w *discardWriter) Write(p []byte) (int, error) { w.n = len(p); return len(p), nil }

// largestRelatedBody is the largest /v1/related body a shard serving
// RealWorld n = 1 500, seed 3 renders: ~70 KB naming ≥ 800 neighbours,
// two thirds of them partial.
func largestRelatedBody(tb testing.TB) []byte {
	tb.Helper()
	shard := buildShardServer(tb, gen.RealWorld(gen.RealWorldConfig{TotalObs: 1500, Seed: 3})).Handler()
	var large []byte
	for i := 0; i < 1500; i++ {
		rec := httptest.NewRecorder()
		shard.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/related?obs="+strconv.Itoa(i), nil))
		if body := rec.Body.Bytes(); len(body) > len(large) {
			large = body
		}
	}
	if n := bytes.Count(large, []byte(`"obs":`)) - 1; n < 800 {
		tb.Fatalf("the largest body names %d neighbours, want ≥ 800", n)
	}
	return large
}

// cannedGate is a gate over three shards a, b and c, whose transport
// answers every read of b with body and every read of a and c with the
// unknown-observation 400; with replicas each shard also has a replica
// that answers as its primary does.
func cannedGate(tb testing.TB, body []byte, replicas bool) *Gate {
	tb.Helper()
	tr := cannedTransport{"b": body}
	var shards []ShardConfig
	for _, name := range []string{"a", "b", "c"} {
		sc := ShardConfig{Name: name, Primary: "http://" + name, Datasets: []string{"d" + name}}
		if replicas {
			sc.Replica = "http://" + name + "-replica"
			tr[name+"-replica"] = tr[name]
		}
		shards = append(shards, sc)
	}
	g, err := New(Config{Shards: shards, Transport: tr, ProbeInterval: -1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(g.Close)
	return g
}

// TestRelatedAllocationsIndependentOfFanout: what one gate read allocates
// is per request and per shard — goroutines, contexts, the upstream
// requests, ~28 a shard, ~3 more with a replica to hedge to — never per
// neighbour: one bound holds for a 3-neighbour and a ≥ 800-neighbour
// answer, with and without replicas. (The reflective merge allocated every
// neighbour three times over: decoded, mapped, re-encoded.) A read
// allocates 85 times without replicas and 94 with them; the bound leaves
// 5 for a Go release that allocates a little more in net/http.
func TestRelatedAllocationsIndependentOfFanout(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random quarter of its Puts under -race, so a request regrows its buffers now and then")
	}
	small := []byte(`{"obs":0,"uri":"http://x/o","contains":[{"obs":1,"uri":"http://x/a"}],"containedBy":[],` +
		`"partiallyContains":[{"obs":2,"uri":"http://x/p","degree":0.5}],"partiallyContainedBy":[],"complements":[{"obs":3,"uri":"http://x/c"}]}`)
	large := largestRelatedBody(t)

	const bound = 99
	for _, replicas := range []bool{false, true} {
		for _, body := range [][]byte{small, large} {
			h := cannedGate(t, body, replicas).readFanout(&routeRelated)
			w := &discardWriter{h: http.Header{}}
			r := httptest.NewRequest("GET", "/v1/related?obs=http://x/o", nil)
			h(w, r) // size the pooled buffers
			if w.n < len(body)/4 {
				t.Fatalf("a %d-byte shard body merged to %d bytes", len(body), w.n)
			}
			allocs := testing.AllocsPerRun(200, func() { h(w, r) })
			t.Logf("replicas %v, %d-byte shard body, %d-byte answer: %.1f allocs per request", replicas, len(body), w.n, allocs)
			if allocs > bound {
				t.Errorf("replicas %v, %d-byte shard body: %.1f allocs per request, want ≤ %d", replicas, len(body), allocs, bound)
			}
		}
	}
}

// BenchmarkGateRelated is one gate read of the largest /v1/related body
// of RealWorld n = 1 500, seed 3, through the gate's full handler stack:
// three canned shards, one owner and two unknown-observation 400s, then
// scan, merge and render.
func BenchmarkGateRelated(b *testing.B) {
	h := cannedGate(b, largestRelatedBody(b), false).Handler()
	w := &discardWriter{h: http.Header{}}
	r := httptest.NewRequest("GET", "/v1/related?obs=http://x/o", nil)
	h.ServeHTTP(w, r) // size the pooled buffers
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		h.ServeHTTP(w, r)
	}
	b.ReportMetric(float64(w.n), "body-B/op")
}

// TestUnknownObservationPrefix: the prefix the gate recognises a
// non-owner's 400 by is what a real shard writes, for a plain URI and for
// every hostile one; the same body cut short, and the shard's other 400s,
// are not recognised.
func TestUnknownObservationPrefix(t *testing.T) {
	h := buildShardServer(t, gen.PaperExample()).Handler()
	for _, uri := range append([]string{"http://example.org/obs/elsewhere"}, wire.HostileStrings...) {
		uri += "#unknown" // the empty hostile string is no observation URI
		for _, route := range readRoutes {
			code, body := get(t, h, "/v1/"+route+"?obs="+url.QueryEscape(uri))
			if code != http.StatusBadRequest || !isUnknownObservation(body) {
				t.Fatalf("%s %q: status %d, body %q does not start %q", route, uri, code, body, unknownObservation)
			}
			if cut := body[:len(body)-3]; isUnknownObservation(cut) {
				t.Fatalf("%s %q: the cut body %q reads as unknown observation", route, uri, cut)
			}
		}
	}
	for _, path := range []string{"/v1/related", "/v1/related?obs=9999"} {
		if code, body := get(t, h, path); code != http.StatusBadRequest || isUnknownObservation(body) {
			t.Fatalf("%s: status %d, body %q reads as unknown observation", path, code, body)
		}
	}
}

type zeros struct{}

func (zeros) Read(p []byte) (int, error) { clear(p); return len(p), nil }

// TestReadBody: a body is read whole into the buffer's kept capacity, and
// one longer than maxUpstreamBody is cut there without an error (it then
// fails to scan).
func TestReadBody(t *testing.T) {
	bp := new([]byte)
	for _, n := range []int{0, 1, 5000, 70000, 300} {
		before := cap(*bp)
		if err := readBody(bp, io.LimitReader(zeros{}, int64(n))); err != nil || len(*bp) != n {
			t.Fatalf("%d-byte body: read %d bytes, err %v", n, len(*bp), err)
		}
		if n < before && cap(*bp) != before {
			t.Fatalf("%d-byte body: capacity %d regrown to %d", n, before, cap(*bp))
		}
	}
	if err := readBody(bp, io.LimitReader(zeros{}, maxUpstreamBody+4096)); err != nil || len(*bp) != maxUpstreamBody {
		t.Fatalf("oversized body: read %d bytes, err %v, want %d and none", len(*bp), err, maxUpstreamBody)
	}
	if err := readBody(bp, io.MultiReader(strings.NewReader("abc"), iotest.ErrReader(io.ErrUnexpectedEOF))); err != io.ErrUnexpectedEOF {
		t.Fatalf("failing body: err %v", err)
	}
}
