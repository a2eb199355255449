package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"testing"

	"rdfcube/internal/core"
	"rdfcube/internal/gen"
	"rdfcube/internal/loadgen"
	"rdfcube/internal/qb"
	"rdfcube/internal/rdf"
	"rdfcube/internal/snapshot"
	"rdfcube/internal/wire"
)

// The reflective rendering the fan-out routes used before render.go, kept
// as the oracle of the byte-identity tests: neighbour structs collected
// into a map[string]any and handed to encoding/json, partial degrees
// formatted by it from Space.Degree (the kernel's division; until the
// degree table was retired, a lookup of what the kernel had stored).

type oracleRef struct {
	Obs int    `json:"obs"`
	URI string `json:"uri"`
}

type oraclePartialRef struct {
	Obs    int     `json:"obs"`
	URI    string  `json:"uri"`
	Degree float64 `json:"degree"`
}

func (s *Server) oracleRefs(ids []int32) []oracleRef {
	out := make([]oracleRef, len(ids))
	for k, j := range ids {
		out[k] = oracleRef{Obs: int(j), URI: s.inc.S.Obs[j].URI.Value}
	}
	return out
}

func (s *Server) oraclePartialRefs(from int, ids []int32, fromIsSource bool) []oraclePartialRef {
	out := make([]oraclePartialRef, len(ids))
	for k, j := range ids {
		a, b := from, int(j)
		if !fromIsSource {
			a, b = b, a
		}
		out[k] = oraclePartialRef{Obs: int(j), URI: s.inc.S.Obs[j].URI.Value, Degree: s.inc.S.Degree(a, b)}
	}
	return out
}

// oracleLists reads observation i's neighbour lists straight off the
// server's result sets, a filter and a sort per list: independent of the
// core.Index the handlers render from.
func (s *Server) oracleLists(i int) (contains, containedBy, partials, partialBy, complements []int32) {
	res := s.inc.Res
	for _, p := range res.FullSet {
		if p.A == i {
			contains = append(contains, int32(p.B))
		}
		if p.B == i {
			containedBy = append(containedBy, int32(p.A))
		}
	}
	for _, p := range res.PartialSet {
		if p.A == i {
			partials = append(partials, int32(p.B))
		}
		if p.B == i {
			partialBy = append(partialBy, int32(p.A))
		}
	}
	for _, p := range res.ComplSet {
		if p.A == i {
			complements = append(complements, int32(p.B))
		}
		if p.B == i {
			complements = append(complements, int32(p.A))
		}
	}
	for _, l := range [][]int32{contains, containedBy, partials, partialBy, complements} {
		slices.Sort(l)
	}
	return
}

// oracleBody is the body the reflective handlers wrote for route and
// observation i.
func (s *Server) oracleBody(t testing.TB, route string, i int) []byte {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	contains, containedBy, partials, partialBy, complements := s.oracleLists(i)
	resp := map[string]any{"obs": i, "uri": s.inc.S.Obs[i].URI.Value}
	if route == "contains" || route == "related" {
		resp["contains"] = s.oracleRefs(contains)
		resp["containedBy"] = s.oracleRefs(containedBy)
	}
	if route == "related" {
		resp["partiallyContains"] = s.oraclePartialRefs(i, partials, true)
		resp["partiallyContainedBy"] = s.oraclePartialRefs(i, partialBy, false)
	}
	if route == "complements" || route == "related" {
		resp["complements"] = s.oracleRefs(complements)
	}
	return encodeNoHTMLEscape(t, resp)
}

func encodeNoHTMLEscape(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// serveCorpus computes corpus with cubeMasking and serves it.
func serveCorpus(t testing.TB, corpus *qb.Corpus) *Server {
	t.Helper()
	s, res, err := core.ComputeCorpusCtx(context.Background(), corpus, core.AlgorithmCubeMasking, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(snapshot.New(s, res, nil), Config{})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func fetch(t testing.TB, h http.Handler, method, target string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
	return rec
}

// assertFanoutBytes compares, for every observation of the server's state
// and each fan-out route, the served body against the reflective oracle.
func assertFanoutBytes(t *testing.T, what string, srv *Server) {
	t.Helper()
	h := srv.Handler()
	neighbours := 0
	for i := 0; i < srv.inc.S.N(); i++ {
		for _, route := range []string{"related", "contains", "complements"} {
			rec := fetch(t, h, "GET", fmt.Sprintf("/v1/%s?obs=%d", route, i), nil)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: %s obs=%d: status %d: %s", what, route, i, rec.Code, rec.Body.Bytes())
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("%s: %s obs=%d: Content-Type %q", what, route, i, ct)
			}
			if want := srv.oracleBody(t, route, i); !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("%s: %s obs=%d: body differs from the reflective rendering\n got: %q\nwant: %q", what, route, i, rec.Body.Bytes(), want)
			}
		}
		neighbours += len(srv.index.PartiallyContains(i)) + len(srv.index.Contains(i)) + len(srv.index.Complements(i))
	}
	if neighbours == 0 {
		t.Fatalf("%s: degenerate fixture: no relationships rendered", what)
	}
}

// TestFanoutBodiesMatchReflectiveRendering: the append-based writer emits,
// byte for byte, what encoding/json emitted for the same state — on a
// computed state and again after 100 live inserts (whose degrees come from
// Incremental, not a batch kernel).
func TestFanoutBodiesMatchReflectiveRendering(t *testing.T) {
	corpus := gen.RealWorld(gen.RealWorldConfig{TotalObs: 400, Seed: 11})
	srv := serveCorpus(t, corpus)
	assertFanoutBytes(t, "computed", srv)

	plan, err := loadgen.BuildPlan(loadgen.PlanConfig{Gen: "realworld", N: 400, Seed: 11, Mix: "ingest", Requests: 400}, corpus)
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	inserted := 0
	for _, op := range plan.Ops {
		if op.Kind != loadgen.OpInsert || inserted == 100 {
			continue
		}
		if rec := fetch(t, h, op.Method, op.Path, op.Body); rec.Code != http.StatusCreated {
			t.Fatalf("insert %d: status %d: %s", inserted, rec.Code, rec.Body.Bytes())
		}
		inserted++
	}
	if inserted != 100 {
		t.Fatalf("plan held %d inserts, want 100", inserted)
	}
	assertFanoutBytes(t, "after 100 inserts", srv)
}

// TestFanoutBodiesHostileURIs runs the byte-identity check on a corpus
// whose observation URIs need every kind of escaping, and resolves one of
// them by its (query-escaped) URI.
func TestFanoutBodiesHostileURIs(t *testing.T) {
	corpus := gen.RealWorld(gen.RealWorldConfig{TotalObs: 200, Seed: 12})
	k := 0
	for _, ds := range corpus.Datasets {
		for _, o := range ds.Observations {
			o.URI = rdf.NewIRI(wire.HostileStrings[k%len(wire.HostileStrings)] + strconv.Itoa(k))
			k++
		}
	}
	srv := serveCorpus(t, corpus)
	assertFanoutBytes(t, "hostile URIs", srv)

	uri := srv.inc.S.Obs[7].URI.Value
	rec := fetch(t, srv.Handler(), "GET", "/v1/related?obs="+url.QueryEscape(uri), nil)
	if want := srv.oracleBody(t, "related", 7); rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("related by URI %q: status %d, body %q, want %q", uri, rec.Code, rec.Body.Bytes(), want)
	}
}

// discardWriter is a ResponseWriter that allocates nothing per request, so
// AllocsPerRun sees the handler's allocations only.
type discardWriter struct {
	h http.Header
	n int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(int)             {}
func (w *discardWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// TestRelatedAllocationsIndependentOfFanout: the related handler's
// allocation count does not grow with the number of neighbours rendered —
// one bound holds for a ≤ 5-neighbour and a ≥ 800-neighbour observation.
// (The reflective rendering allocated per list and per reflected value,
// and encoding/json's buffer grew with the body.)
func TestRelatedAllocationsIndependentOfFanout(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random quarter of its Puts under -race, so a request regrows its buffer now and then")
	}
	fanout := func(srv *Server, i int) int {
		ix := srv.index
		return len(ix.Contains(i)) + len(ix.ContainedBy(i)) + len(ix.PartiallyContains(i)) + len(ix.PartiallyContainedBy(i)) + len(ix.Complements(i))
	}
	// extreme returns the observation of srv whose fan-out is smallest
	// (sign < 0) or largest.
	extreme := func(srv *Server, sign int) int {
		best := 0
		for i := 1; i < srv.inc.S.N(); i++ {
			if sign*(fanout(srv, i)-fanout(srv, best)) > 0 {
				best = i
			}
		}
		return best
	}
	paper := serveCorpus(t, gen.PaperExample())
	realWorld := serveCorpus(t, gen.RealWorld(gen.RealWorldConfig{TotalObs: 1500, Seed: 3}))
	small, large := extreme(paper, -1), extreme(realWorld, +1)
	if fs, fl := fanout(paper, small), fanout(realWorld, large); fs > 5 || fl < 800 {
		t.Fatalf("fixture fan-outs are %d and %d, want ≤ 5 and ≥ 800", fs, fl)
	}

	// Request parsing (URL.Query) and the deferred buffer recycle are
	// per-request constants.
	const bound = 8
	for _, c := range []struct {
		srv *Server
		obs int
	}{{paper, small}, {realWorld, large}} {
		w := &discardWriter{h: http.Header{}}
		r := httptest.NewRequest("GET", "/v1/related?obs="+strconv.Itoa(c.obs), nil)
		c.srv.handleRelated(w, r) // size the pooled buffer
		size := w.n
		if size == 0 {
			t.Fatalf("obs %d: nothing written", c.obs)
		}
		allocs := testing.AllocsPerRun(200, func() { c.srv.handleRelated(w, r) })
		t.Logf("%d neighbours, %d-byte body: %.1f allocs per request", fanout(c.srv, c.obs), size, allocs)
		if allocs > bound {
			t.Errorf("%d neighbours: %.1f allocs per request, want ≤ %d", fanout(c.srv, c.obs), allocs, bound)
		}
	}
}

// refObject is the neighbour object the fan-out routes write for (obs, uri).
func refObject(obs int, uri string) []byte {
	return append(wire.AppendRef(nil, obs, uri), '}')
}

// TestAppendJSONString pins serve's use of the shared string writer on the
// hostile inputs: a neighbour object is what encoding/json wrote for the
// reflective oracleRef. (internal/wire tests the writer itself, and its
// fuzz target of the same name is the one CI runs.)
func TestAppendJSONString(t *testing.T) {
	for _, s := range append([]string{"http://example.org/obs/plain~ !#$%'()*+,-./:;=?@[]^_`{|}"}, wire.HostileStrings...) {
		want := bytes.TrimSuffix(encodeNoHTMLEscape(t, oracleRef{Obs: 7, URI: s}), []byte("\n"))
		if got := refObject(7, s); !bytes.Equal(got, want) {
			t.Errorf("neighbour object for %q = %q, encoding/json writes %q", s, got, want)
		}
	}
}

func FuzzAppendJSONString(f *testing.F) {
	for _, s := range wire.HostileStrings {
		f.Add(s)
	}
	f.Add("http://example.org/obs/17")
	f.Fuzz(func(t *testing.T, s string) {
		want := bytes.TrimSuffix(encodeNoHTMLEscape(t, oracleRef{Obs: len(s), URI: s}), []byte("\n"))
		if got := refObject(len(s), s); !bytes.Equal(got, want) {
			t.Fatalf("neighbour object for %q = %q, encoding/json writes %q", s, got, want)
		}
	})
}
