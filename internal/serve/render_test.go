package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"rdfcube/internal/core"
	"rdfcube/internal/faultfs"
	"rdfcube/internal/gen"
	"rdfcube/internal/loadgen"
	"rdfcube/internal/qb"
	"rdfcube/internal/rdf"
	"rdfcube/internal/snapshot"
	"rdfcube/internal/wal"
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
// relationship sets of the server's decoded checkpoint image, a filter and
// a sort per list: the inverse lists and the rendering are independent of
// the core.Index the handlers render from.
func oracleLists(res *core.Result, i int) (contains, containedBy, partials, partialBy, complements []int32) {
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
// observation i, given the server's relationship sets.
func (s *Server) oracleBody(t testing.TB, res *core.Result, route string, i int) []byte {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	contains, containedBy, partials, partialBy, complements := oracleLists(res, i)
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
	res := servedState(t, srv).Result
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
			if want := srv.oracleBody(t, res, route, i); !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("%s: %s obs=%d: body differs from the reflective rendering\n got: %q\nwant: %q", what, route, i, rec.Body.Bytes(), want)
			}
		}
		neighbours += len(srv.index.PartiallyContains(i)) + len(srv.index.Contains(i)) + len(srv.index.Complements(i))
	}
	if neighbours == 0 {
		t.Fatalf("%s: degenerate fixture: no relationships rendered", what)
	}
}

// insertPlanned sends the first n inserts of the RealWorld ingest plan
// over corpus (generated with seed) through h. With uri non-nil the k-th
// insert's observation URI is replaced by uri(k).
func insertPlanned(t *testing.T, h http.Handler, corpus *qb.Corpus, seed int64, n int, uri func(k int) string) {
	t.Helper()
	plan, err := loadgen.BuildPlan(loadgen.PlanConfig{Gen: "realworld", N: corpus.NumObservations(), Seed: seed, Mix: "ingest", Requests: 400}, corpus)
	if err != nil {
		t.Fatal(err)
	}
	inserted := 0
	for _, op := range plan.Ops {
		if op.Kind != loadgen.OpInsert || inserted == n {
			continue
		}
		body := op.Body
		if uri != nil {
			var req map[string]any
			if err := json.Unmarshal(body, &req); err != nil {
				t.Fatal(err)
			}
			req["uri"] = uri(inserted)
			if body, err = json.Marshal(req); err != nil {
				t.Fatal(err)
			}
		}
		if rec := fetch(t, h, op.Method, op.Path, body); rec.Code != http.StatusCreated {
			t.Fatalf("insert %d: status %d: %s", inserted, rec.Code, rec.Body.Bytes())
		}
		inserted++
	}
	if inserted != n {
		t.Fatalf("plan held %d inserts, want %d", inserted, n)
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
	insertPlanned(t, srv.Handler(), corpus, 11, 100, nil)
	assertFanoutBytes(t, "after 100 inserts", srv)
}

// TestPartialRefsAcrossChunks: appendPartialRefs derives degrees
// degreeChunk neighbours at a time. A list several chunks long, with
// repeats, renders in both directions what one ContainDegree call per
// neighbour gives. (No served list at n = 1 500 exceeds one chunk.)
func TestPartialRefsAcrossChunks(t *testing.T) {
	srv := serveCorpus(t, gen.RealWorld(gen.RealWorldConfig{TotalObs: 400, Seed: 11}))
	sp := srv.inc.S
	var ids []int32
	for len(ids) <= 2*degreeChunk {
		for j := sp.N() - 1; j >= 0; j-- {
			ids = append(ids, int32(j))
		}
	}
	for _, i := range []int{0, sp.N() / 2, sp.N() - 1} {
		for _, fromIsSource := range []bool{true, false} {
			want := []byte{'['}
			for k, j := range ids {
				if k > 0 {
					want = append(want, ',')
				}
				deg := sp.ContainDegree(i, int(j))
				if !fromIsSource {
					deg = sp.ContainDegree(int(j), i)
				}
				want = append(want, srv.refs[j]...)
				want = append(want, `,"degree":`...)
				want = wire.AppendFloat(want, float64(deg)/float64(sp.NumDims()))
				want = append(want, '}')
			}
			want = append(want, ']')
			if got := srv.appendPartialRefs(nil, i, ids, fromIsSource); !bytes.Equal(got, want) {
				t.Fatalf("obs %d, fromIsSource %v, %d neighbours: the rendered list differs from one ContainDegree per neighbour", i, fromIsSource, len(ids))
			}
		}
	}
}

// loggedInserts serves RealWorld n = 400 (seed 11) from a WAL-backed
// server, sends it 100 live inserts, and returns the state before them
// (as snapshot bytes) and the records the WAL holds after them.
func loggedInserts(t *testing.T) ([]byte, []wal.Record) {
	t.Helper()
	corpus := gen.RealWorld(gen.RealWorldConfig{TotalObs: 400, Seed: 11})
	base, err := serveCorpus(t, corpus).EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	mem := faultfs.NewMemFS()
	wlog, _, err := wal.Open(mem, "cube.wal")
	if err != nil {
		t.Fatal(err)
	}
	primary, err := New(decodeSnapshot(t, base), Config{WAL: wlog})
	if err != nil {
		t.Fatal(err)
	}
	insertPlanned(t, primary.Handler(), corpus, 11, 100, nil)
	if err := wlog.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, recs, err := wal.Open(mem, "cube.wal")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reopened.Close() })
	if len(recs) != 100 {
		t.Fatalf("the WAL holds %d records, want 100", len(recs))
	}
	return base, recs
}

// TestReplayAndFollowerFanoutBodiesMatchReflectiveRendering: a server
// rebuilt by replaying a WAL, and a read-only follower grown by
// ApplyReplicated, render the logged observations' neighbour fragments as
// the oracle does — both grow the state through the same
// applyInsertLocked a live insert does.
func TestReplayAndFollowerFanoutBodiesMatchReflectiveRendering(t *testing.T) {
	base, recs := loggedInserts(t)
	for _, tc := range []struct {
		name  string
		cfg   Config
		apply func(*Server, []wal.Record) (int, error)
	}{
		{"replay", Config{}, (*Server).Replay},
		{"follower", Config{Follower: &FollowerState{Leader: "http://primary.invalid"}}, (*Server).ApplyReplicated},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := New(decodeSnapshot(t, base), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if n, err := tc.apply(srv, recs); err != nil || n != len(recs) {
				t.Fatalf("applied %d of %d records: %v", n, len(recs), err)
			}
			assertFanoutBytes(t, tc.name, srv)
		})
	}
}

// TestFanoutBodiesHostileURIs runs the byte-identity check on a corpus
// whose observation URIs need every kind of escaping, resolves one of
// them by its (query-escaped) URI, and checks again after such URIs
// arrive as live inserts, which render their fragments on the write path.
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
	if want := srv.oracleBody(t, servedState(t, srv).Result, "related", 7); rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("related by URI %q: status %d, body %q, want %q", uri, rec.Code, rec.Body.Bytes(), want)
	}

	insertPlanned(t, srv.Handler(), corpus, 12, 2*len(wire.HostileStrings), func(k int) string {
		return wire.HostileStrings[k%len(wire.HostileStrings)] + "inserted" + strconv.Itoa(k)
	})
	assertFanoutBytes(t, "hostile URIs inserted", srv)
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

// relatedStack serves RealWorld n = 1 500 (seed 1) through the full
// Server.Handler() stack and builds one GET /v1/related per observation.
func relatedStack(t testing.TB) (http.Handler, []*http.Request) {
	t.Helper()
	srv := serveCorpus(t, gen.RealWorld(gen.RealWorldConfig{TotalObs: 1500, Seed: 1}))
	reqs := make([]*http.Request, srv.inc.S.N())
	for i := range reqs {
		reqs[i] = httptest.NewRequest("GET", "/v1/related?obs="+strconv.Itoa(i), nil)
	}
	return srv.Handler(), reqs
}

// TestRelatedHandlerCopyFree: through the full handler stack a
// /v1/related answer is rendered into a pooled buffer and written from it,
// so a request allocates a small fraction of the body it sends — not a
// second copy of it.
func TestRelatedHandlerCopyFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random quarter of its Puts under -race, so a request regrows its buffer now and then")
	}
	h, reqs := relatedStack(t)
	w := &discardWriter{h: http.Header{}}
	for _, r := range reqs {
		h.ServeHTTP(w, r) // size the pooled buffers
	}
	w.n = 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, r := range reqs {
		h.ServeHTTP(w, r)
	}
	runtime.ReadMemStats(&after)
	alloc := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(reqs))
	body := float64(w.n) / float64(len(reqs))
	t.Logf("%.0f B allocated for a %.0f B body per request", alloc, body)
	if alloc >= body/4 {
		t.Errorf("a request allocates %.0f B for a %.0f-byte body, want under a quarter of it", alloc, body)
	}
}

// BenchmarkRelatedHandler is GET /v1/related through the full handler
// stack, uniform over the observations of RealWorld n = 1 500.
func BenchmarkRelatedHandler(b *testing.B) {
	h, reqs := relatedStack(b)
	w := &discardWriter{h: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		h.ServeHTTP(w, reqs[k%len(reqs)])
	}
	b.ReportMetric(float64(w.n)/float64(b.N), "body-B/op")
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
