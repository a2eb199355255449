package gate

import (
	"bytes"
	"context"
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
	worlds, combined := gen.ShardWorlds(gen.ShardWorldsConfig{Seed: 19, ObsPerDataset: 20})
	k := 0
	for _, o := range combined.Observations() { // the worlds share these observations
		o.URI = rdf.NewIRI(wire.HostileStrings[k%len(wire.HostileStrings)] + "#" + strconv.Itoa(k))
		k++
	}
	f := newFleet(t, worlds, combined)
	if f.worlds[0].Corpus.Datasets[0].Observations[1].URI.Value != wire.HostileStrings[1]+"#1" {
		t.Fatal("the worlds do not share the combined corpus' observations")
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

// TestCanonicalRelated: the migration comparator is the merge of one
// answer, so two owners of the same relationships compare equal although
// their local indices — and so their raw bodies and list orders — differ,
// and one changed degree makes them unequal.
func TestCanonicalRelated(t *testing.T) {
	leakcheck.Check(t)
	f := buildFleet(t, 23)
	g := f.newGate(t, nil)
	w := f.worlds[2] // the oracle holds g2's observations at other indices
	shardURL := "http://shard-" + w.Name + "-primary"
	compared := 0
	for _, o := range w.Corpus.Datasets[0].Observations {
		uri := o.URI.Value
		_, rawShard := get(t, f.tr.handlers["shard-"+w.Name+"-primary"], relatedPath(uri))
		_, rawOracle := get(t, f.oracle.Handler(), relatedPath(uri))
		if !bytes.Contains(rawShard, []byte(`"degree":`)) {
			continue
		}
		if bytes.Equal(rawShard, rawOracle) {
			t.Fatalf("%s: the two owners' raw bodies are equal: the fixture proves nothing", uri)
		}
		a, aerr := g.canonicalRelated(context.Background(), shardURL, uri)
		b, berr := g.canonicalRelated(context.Background(), "http://oracle", uri)
		if aerr != nil || berr != nil {
			t.Fatalf("%s: %v, %v", uri, aerr, berr)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: canonical answers differ:\n shard:  %s\n oracle: %s", uri, a, b)
		}
		if want := oracleMerge(t, "related", [][]byte{rawShard}, nil); !bytes.Equal(a, want) {
			t.Fatalf("%s: canonical answer %q, the reflective merge of the one body writes %q", uri, a, want)
		}

		// The same owner, one degree nudged.
		at := bytes.Index(rawShard, []byte(`"degree":`)) + len(`"degree":`)
		skewed := append(append(append([]byte{}, rawShard[:at]...), "0.0625"...), rawShard[at+bytes.IndexAny(rawShard[at:], ",}"):]...)
		f.tr.add("skewed", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.Write(skewed) }))
		c, cerr := g.canonicalRelated(context.Background(), "http://skewed", uri)
		if cerr != nil || bytes.Equal(a, c) || len(c) == 0 {
			t.Fatalf("%s: a changed degree compares equal (err %v):\n %s\n %s", uri, cerr, a, c)
		}
		compared++
	}
	if compared == 0 {
		t.Fatal("degenerate fixture: no observation with a partial neighbour")
	}
	if _, err := g.canonicalRelated(context.Background(), shardURL, "http://example.org/unknown"); err == nil {
		t.Fatal("an unknown observation has a canonical answer")
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

// TestRelatedAllocationsIndependentOfFanout: what one gate read allocates
// is per request and per shard — goroutines, contexts, the upstream
// requests, ~35 a shard — never per neighbour: one bound holds for a
// 3-neighbour and a ≥ 800-neighbour answer. (The reflective merge allocated every neighbour
// three times over: decoded, mapped, re-encoded.)
func TestRelatedAllocationsIndependentOfFanout(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random quarter of its Puts under -race, so a request regrows its buffers now and then")
	}
	small := []byte(`{"obs":0,"uri":"http://x/o","contains":[{"obs":1,"uri":"http://x/a"}],"containedBy":[],` +
		`"partiallyContains":[{"obs":2,"uri":"http://x/p","degree":0.5}],"partiallyContainedBy":[],"complements":[{"obs":3,"uri":"http://x/c"}]}`)
	shard := buildShardServer(t, gen.RealWorld(gen.RealWorldConfig{TotalObs: 1500, Seed: 3})).Handler()
	var large []byte
	for i := 0; i < 1500; i++ {
		if _, body := get(t, shard, "/v1/related?obs="+strconv.Itoa(i)); len(body) > len(large) {
			large = body
		}
	}
	if n := bytes.Count(large, []byte(`"obs":`)) - 1; n < 800 {
		t.Fatalf("the largest body names %d neighbours, want ≥ 800", n)
	}

	const bound = 110
	for _, body := range [][]byte{small, large} {
		g, err := New(Config{
			Shards: []ShardConfig{
				{Name: "a", Primary: "http://a", Datasets: []string{"da"}},
				{Name: "b", Primary: "http://b", Datasets: []string{"db"}},
				{Name: "c", Primary: "http://c", Datasets: []string{"dc"}},
			},
			Transport:     cannedTransport{"b": body},
			ProbeInterval: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		h := g.readFanout(&routeRelated)
		w := &discardWriter{h: http.Header{}}
		r := httptest.NewRequest("GET", "/v1/related?obs=http://x/o", nil)
		h(w, r) // size the pooled buffers
		if w.n < len(body)/4 {
			t.Fatalf("a %d-byte shard body merged to %d bytes", len(body), w.n)
		}
		allocs := testing.AllocsPerRun(200, func() { h(w, r) })
		t.Logf("%d-byte shard body, %d-byte answer: %.1f allocs per request", len(body), w.n, allocs)
		if allocs > bound {
			t.Errorf("%d-byte shard body: %.1f allocs per request, want ≤ %d", len(body), allocs, bound)
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
