package wire_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"rdfcube/internal/core"
	"rdfcube/internal/gen"
	"rdfcube/internal/qb"
	"rdfcube/internal/rdf"
	"rdfcube/internal/serve"
	"rdfcube/internal/snapshot"
	"rdfcube/internal/wire"
)

// The reflective reading of a shard body — what cubegate decoded with
// encoding/json before the scanner — kept as the tests' oracle.

type shardRef struct {
	URI    string  `json:"uri"`
	Degree float64 `json:"degree"`
}

type shardRelated struct {
	URI                  string     `json:"uri"`
	Contains             []shardRef `json:"contains"`
	ContainedBy          []shardRef `json:"containedBy"`
	PartiallyContains    []shardRef `json:"partiallyContains"`
	PartiallyContainedBy []shardRef `json:"partiallyContainedBy"`
	Complements          []shardRef `json:"complements"`
}

func (sr *shardRelated) lists() [wire.NumLists][]shardRef {
	return [wire.NumLists][]shardRef{sr.Contains, sr.ContainedBy, sr.PartiallyContains, sr.PartiallyContainedBy, sr.Complements}
}

// sameAsReflective fails unless the scanned answer holds exactly what
// json.Unmarshal reads from body.
func sameAsReflective(t testing.TB, body []byte, got *wire.Answer) {
	t.Helper()
	var want shardRelated
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatalf("scanned, but encoding/json refuses it: %v\nbody: %q", err, body)
	}
	if string(got.URI) != want.URI {
		t.Fatalf("uri %q, encoding/json reads %q\nbody: %q", got.URI, want.URI, body)
	}
	for l, refs := range want.lists() {
		list := got.Lists[l]
		if len(list) != len(refs) {
			t.Fatalf("%s: %d neighbours, encoding/json reads %d\nbody: %q", wire.List(l).Name(), len(list), len(refs), body)
		}
		for k, ref := range refs {
			if string(list[k].URI) != ref.URI || list[k].Degree != ref.Degree {
				t.Fatalf("%s[%d] = (%q, %v), encoding/json reads (%q, %v)\nbody: %q",
					wire.List(l).Name(), k, list[k].URI, list[k].Degree, ref.URI, ref.Degree, body)
			}
		}
	}
}

func nest(open, close string, depth int) string {
	return strings.Repeat(open, depth) + strings.Repeat(close, depth)
}

var accepted = []string{
	`{"uri":"u"}`,
	`{"complements":[{"obs":1,"uri":"c"}],"containedBy":[],"contains":[{"obs":2,"uri":"a"},{"obs":3,"uri":"b"}],"obs":0,` +
		`"partiallyContainedBy":[{"obs":4,"uri":"p","degree":0.6666666666666666}],"partiallyContains":[],"uri":"u"}` + "\n",
	" \t\r\n{ \"uri\" : \"u\" , \"contains\" : [ { \"uri\" : \"a\" , \"degree\" : 1e-7 } , { \"degree\" : -0.5E+1 , \"uri\" : \"b\" } ] } \n",
	`{"contains":null,"containedBy":null,"partiallyContains":null,"partiallyContainedBy":null,"complements":null,"uri":""}`,
	`{"uri":"u","later":{"a":[1,2.5,{"b":[true,false,null,"s\n"]}],"c":{}},"contains":[{"uri":"a","extra":[[],{}],"obs":7}]}`,
	`{"uri":"q\"uote\\\/\b\f\n\r\té😀\ud800","contains":[{"uri":"ünï "},{"uri":"bad` + "\xff" + `utf8"}]}`,
	`{"\u0075ri":"escaped names","contains":[{"ur\u0069":"a","d\u0065gree":0.5}]}`,
	`{"URI":"unknown here","Contains":7,"uri":"u"}`,
	`{"uri":"u","deep":` + nest("[", "]", 63) + `}`,
	`{"uri":"u","contains":[{"uri":"a","deep":` + strings.Repeat(`{"k":`, 61) + `1` + strings.Repeat("}", 61) + `}]}`,
	`{"uri":"u","contains":[{"uri":"a","degree":0},{"uri":"a","degree":12345678901234567890123456789012345678901234567890}]}`,
}

var rejected = []string{
	``, ` `, `null`, `[]`, `"uri"`, `{}`, `{"contains":[]}`,
	`{"uri":"u"`, `{"uri":"u",}`, `{"uri":"u"}}`, `{"uri":"u"} x`, `{"uri":"u"}` + "\x00", `{,"uri":"u"}`,
	`{"uri":"u","uri":"v"}`, `{"uri":"u","contains":[],"contains":[]}`,
	`{"uri":null}`, `{"uri":5}`, `{"uri":"u","contains":{}}`, `{"uri":"u","contains":"x"}`, `{"uri":"u","contains":[null]}`,
	`{"uri":"u","contains":[{}]}`, `{"uri":"u","contains":[{"obs":1}]}`, `{"uri":"u","contains":[{"uri":"a"},]}`,
	`{"uri":"u","contains":[{"uri":"a","uri":"b"}]}`, `{"uri":"u","contains":[{"uri":"a","degree":1,"degree":1}]}`,
	`{"uri":"u","contains":[{"uri":"a","degree":"1"}]}`, `{"uri":"u","contains":[{"uri":"a","degree":null}]}`,
	`{"uri":"u","contains":[{"uri":"a","degree":1e999}]}`, `{"uri":"u","contains":[{"uri":"a","degree":01}]}`,
	`{"uri":"u","contains":[{"uri":"a","degree":1.}]}`, `{"uri":"u","contains":[{"uri":"a","degree":-}]}`,
	`{"uri":"u","contains":[{"uri":"a","degree":.5}]}`, `{"uri":"u","contains":[{"uri":"a","degree":1e}]}`,
	`{"uri":"u","contains":[{"uri":"a","degree":+1}]}`, `{"uri":"u","contains":[{"uri":"a"}`,
	`{"uri":"bad \x escape"}`, `{"uri":"short \u12"}`, `{"uri":"hex \u12g4"}`, "{\"uri\":\"ctl \x01\"}", "{\"uri\":\"nl \n\"}", `{"uri":"open`, `{"uri":"open\`,
	`{"uri":"u","x":tru}`, `{"uri":"u","x":nul}`, `{"uri":"u","x":falsy}`, `{"uri":"u","x":[1 2]}`, `{"uri":"u","x":{"a" 1}}`, `{"uri":"u","x":{1:2}}`, `{"uri":"u","x":}`,
	`{"uri":"u","x":NaN}`, `{"uri":"u","x":'s'}`, `{uri:"u"}`,
	`{"uri":"u","deep":` + nest("[", "]", 65) + `}`,
	`{"uri":"u","deep":` + nest("[", "]", 64) + `}`,
	`{"uri":"u","contains":[{"uri":"a","deep":` + strings.Repeat(`{"k":`, 62) + `1` + strings.Repeat("}", 62) + `}]}`,
	`{"uri":"u","deep":` + strings.Repeat("[", 100000),
}

// TestScanGrammar: the accepted set reads as encoding/json reads it (the
// two bodies with a case variant of a known name aside: there the scanner
// is documented to differ), the rejected set errors and leaves the Answer
// untouched.
func TestScanGrammar(t *testing.T) {
	for _, body := range accepted {
		var a wire.Answer
		if err := a.Scan([]byte(body)); err != nil {
			t.Errorf("refused %q: %v", body, err)
			continue
		}
		if !json.Valid([]byte(body)) {
			t.Errorf("accepted %q, which is not JSON", body)
		}
		if !hasCaseVariant([]byte(body)) {
			sameAsReflective(t, []byte(body), &a)
		}
	}
	var a wire.Answer
	if err := a.Scan([]byte(`{"uri":"kept","contains":[{"uri":"a"}],"complements":[{"uri":"c"}]}`)); err != nil {
		t.Fatal(err)
	}
	for _, body := range rejected {
		err := a.Scan([]byte(body))
		if err == nil {
			t.Errorf("accepted %q", body)
		}
		if string(a.URI) != "kept" || len(a.Lists[wire.Contains]) != 1 || len(a.Lists[wire.Complements]) != 1 || len(a.Lists[wire.ContainedBy]) != 0 {
			t.Fatalf("a failed scan of %q changed the Answer: %+v", body, a)
		}
	}
	if got := string(a.Lists[wire.Contains][0].URI) + string(a.Lists[wire.Complements][0].URI); got != "ac" {
		t.Fatalf("neighbours after the failed scans: %q", got)
	}
}

// TestScanAppendsAndCompacts: scanning several bodies into one Answer and
// compacting is the merge — sorted by URI, one entry per URI, the largest
// degree kept whichever body came first.
func TestScanAppendsAndCompacts(t *testing.T) {
	bodies := []string{
		`{"uri":"first","contains":[{"uri":"b"},{"uri":"a"}],"partiallyContains":[{"uri":"p","degree":0.25},{"uri":"q","degree":0.5}]}`,
		`{"uri":"second","contains":[{"uri":"c"},{"uri":"a"}],"partiallyContains":[{"uri":"p","degree":0.75},{"uri":"q","degree":0.5},{"uri":"o","degree":1}]}`,
	}
	for _, order := range [][]int{{0, 1}, {1, 0}} {
		var a wire.Answer
		for _, k := range order {
			if err := a.Scan([]byte(bodies[k])); err != nil {
				t.Fatal(err)
			}
		}
		if want := []string{"first", "second"}[order[1]]; string(a.URI) != want {
			t.Errorf("order %v: uri %q, want the last scanned, %q", order, a.URI, want)
		}
		a.Compact()
		got := ""
		for _, l := range []wire.List{wire.Contains, wire.PartiallyContains} {
			for _, n := range a.Lists[l] {
				got += fmt.Sprintf("%s=%v ", n.URI, n.Degree)
			}
		}
		if want := "a=0 b=0 c=0 o=1 p=0.75 q=0.5 "; got != want {
			t.Errorf("order %v: merged %q, want %q", order, got, want)
		}
		a.Reset()
		if a.URI != nil || len(a.Lists[wire.Contains]) != 0 || cap(a.Lists[wire.Contains]) == 0 {
			t.Errorf("Reset left %+v", a)
		}
	}
}

// serveCorpus computes corpus with cubeMasking and serves it.
func serveCorpus(t testing.TB, corpus *qb.Corpus) http.Handler {
	t.Helper()
	s, res, err := core.ComputeCorpusCtx(context.Background(), corpus, core.AlgorithmCubeMasking, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(snapshot.New(s, res, nil), serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.BeginShutdown)
	return srv.Handler()
}

func fetchBody(t testing.TB, h http.Handler, route string, obs int) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/"+route+"?obs="+strconv.Itoa(obs), nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s obs=%d: status %d: %s", route, obs, rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes()
}

// TestScanRoundTrip: every body serve renders — all three routes, every
// observation, plain and hostile URIs — scans back to the lists
// encoding/json reads from it, and scanning allocates nothing once the
// Answer's lists have grown (hostile literals aside, which are decoded).
func TestScanRoundTrip(t *testing.T) {
	plain := gen.RealWorld(gen.RealWorldConfig{TotalObs: 300, Seed: 11})
	hostile := gen.RealWorld(gen.RealWorldConfig{TotalObs: 200, Seed: 12})
	k := 0
	for _, ds := range hostile.Datasets {
		for _, o := range ds.Observations {
			o.URI = rdf.NewIRI(wire.HostileStrings[k%len(wire.HostileStrings)] + strconv.Itoa(k))
			k++
		}
	}
	for name, corpus := range map[string]*qb.Corpus{"plain": plain, "hostile": hostile} {
		h := serveCorpus(t, corpus)
		neighbours := 0
		var a wire.Answer
		for i := 0; i < corpus.NumObservations(); i++ {
			for _, route := range []string{"related", "contains", "complements"} {
				body := fetchBody(t, h, route, i)
				a.Reset()
				if err := a.Scan(body); err != nil {
					t.Fatalf("%s: %s obs=%d: %v\nbody: %q", name, route, i, err, body)
				}
				sameAsReflective(t, body, &a)
				for _, list := range a.Lists {
					neighbours += len(list)
				}
				if name != "plain" {
					continue
				}
				if allocs := testing.AllocsPerRun(5, func() {
					a.Reset()
					_ = a.Scan(body)
				}); allocs != 0 {
					t.Fatalf("%s obs=%d: %.0f allocations to scan a %d-byte body", route, i, allocs, len(body))
				}
			}
		}
		if neighbours == 0 {
			t.Fatalf("%s: degenerate fixture: no relationships rendered", name)
		}
	}
}

var knownNames = []string{"uri", "degree", "contains", "containedBy", "partiallyContains", "partiallyContainedBy", "complements"}

// hasCaseVariant reports whether some member name of body's object, or of
// an object one array below it, differs from a known name only by case
// folding — what encoding/json would match to a field and the scanner
// skips as unknown.
func hasCaseVariant(body []byte) bool {
	variant := func(members map[string]json.RawMessage) bool {
		for name := range members {
			for _, known := range knownNames {
				if name != known && strings.EqualFold(name, known) {
					return true
				}
			}
		}
		return false
	}
	var top map[string]json.RawMessage
	if json.Unmarshal(body, &top) != nil {
		return false
	}
	if variant(top) {
		return true
	}
	for _, v := range top {
		var elems []map[string]json.RawMessage
		if json.Unmarshal(v, &elems) != nil {
			continue
		}
		for _, e := range elems {
			if variant(e) {
				return true
			}
		}
	}
	return false
}

// FuzzScanShardBody: Scan never panics; what it accepts is JSON; and
// unless a member name is a case variant of a known one (the documented
// difference), what it accepts reads exactly as json.Unmarshal reads it.
func FuzzScanShardBody(f *testing.F) {
	h := serveCorpus(f, gen.PaperExample())
	for i := 0; i < 4; i++ {
		for _, route := range []string{"related", "contains", "complements"} {
			f.Add(fetchBody(f, h, route, i))
		}
	}
	for _, body := range accepted {
		f.Add([]byte(body))
	}
	for _, body := range rejected {
		if len(body) < 1<<10 {
			f.Add([]byte(body))
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var a wire.Answer
		if err := a.Scan(body); err != nil {
			if a.URI != nil {
				t.Fatalf("a failed scan left uri %q", a.URI)
			}
			return
		}
		if !json.Valid(body) {
			t.Fatalf("accepted %q, which is not JSON", body)
		}
		if !hasCaseVariant(body) {
			sameAsReflective(t, body, &a)
		}
	})
}

// largestBody is the largest /v1/related body of a 1 500-observation
// RealWorld corpus: ~70 KB naming ~900 neighbours, two thirds of them
// partial.
func largestBody(tb testing.TB) []byte {
	h := serveCorpus(tb, gen.RealWorld(gen.RealWorldConfig{TotalObs: 1500, Seed: 3}))
	var large []byte
	for i := 0; i < 1500; i++ {
		if body := fetchBody(tb, h, "related", i); len(body) > len(large) {
			large = body
		}
	}
	return large
}

// BenchmarkScanCompact is the gate's per-read work on one owner's body,
// short of rendering.
func BenchmarkScanCompact(b *testing.B) {
	body := largestBody(b)
	var a wire.Answer
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Reset()
		if err := a.Scan(body); err != nil {
			b.Fatal(err)
		}
		a.Compact()
	}
}
