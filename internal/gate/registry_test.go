package gate

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"rdfcube/internal/leakcheck"
	"rdfcube/internal/obsv"
)

// renderedCounter reads the named counter off the collector's /metrics
// exposition; a counter never touched is not rendered and reads 0.
func renderedCounter(t *testing.T, col *obsv.Collector, name string) int64 {
	t.Helper()
	var b strings.Builder
	if err := col.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^rdfcube_counter\{name="` + regexp.QuoteMeta(name) + `"\} (\d+)$`).FindStringSubmatch(b.String())
	if m == nil {
		return 0
	}
	n, err := strconv.ParseInt(m[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestGateStatsReadItsRegistry: a gate built without a Recorder makes its
// own registry, and /v1/stats, /readyz and the hedge delay read from it.
// After reads, an insert a shard sheds once, a read a shard primary sheds,
// a hedge and a partial read, every count /v1/stats and /readyz report
// equals the counter of the same name /metrics renders.
func TestGateStatsReadItsRegistry(t *testing.T) {
	leakcheck.Check(t)
	f := buildFleet(t, 71)
	g := f.newGate(t, func(c *Config) {
		c.Recorder = nil
		c.HedgeMin, c.HedgeMax = 10*time.Millisecond, 10*time.Millisecond
		c.BreakerThreshold = 1000 // keep breakers out of this test
		c.WriteRetryBase = 5 * time.Millisecond
		c.MaxRetryWait = 20 * time.Millisecond
	})
	h := g.Handler()
	read := func(uri string) relatedResponse {
		t.Helper()
		code, body := get(t, h, relatedPath(uri))
		var resp relatedResponse
		if err := json.Unmarshal(body, &resp); err != nil || code != http.StatusOK {
			t.Fatalf("read %s: status %d body %s", uri, code, body)
		}
		return resp
	}
	for _, uri := range f.obsURIs[:3] {
		read(uri)
	}

	shed := func(w http.ResponseWriter) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		io.WriteString(w, `{"error":"too many in-flight requests"}`)
	}
	w0, w1, w2 := f.worlds[0], f.worlds[1], f.worlds[2]
	primary := func(w string) string { return "shard-" + w + "-primary" }
	real0 := f.tr.handlers[primary(w0.Name)]
	f.tr.add(primary(w0.Name), &retryScript{scripts: []func(http.ResponseWriter){shed}, final: real0})
	src := w0.Corpus.Datasets[0]
	dims := map[string]string{}
	for k, d := range src.Schema.Dimensions {
		dims[d.Value] = src.Observations[0].DimValues[k].Value
	}
	body, _ := json.Marshal(map[string]any{
		"dataset":    src.URI.Value,
		"uri":        "http://example.org/gate-test/registry/1",
		"dimensions": dims,
		"measures":   map[string]string{src.Schema.Measures[0].Value: "7"},
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/observations", bytes.NewReader(body)))
	if rec.Code != http.StatusCreated {
		t.Fatalf("insert the shard shed once: status %d body %s", rec.Code, rec.Body)
	}

	real1 := f.tr.handlers[primary(w1.Name)]
	f.tr.add(primary(w1.Name), http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { shed(w) }))
	if resp := read(w1.Corpus.Datasets[0].Observations[0].URI.Value); resp.Partial {
		t.Fatalf("a read whose primary sheds is answered by the replica, not partial: missing %v", resp.MissingShards)
	}
	f.tr.add(primary(w1.Name), real1)

	f.tr.setDelay(primary(w2.Name), 100*time.Millisecond)
	read(w2.Corpus.Datasets[0].Observations[0].URI.Value)
	f.tr.setDelay(primary(w2.Name), 0)

	f.tr.setFail(primary(w1.Name), true)
	f.tr.setFail("shard-"+w1.Name+"-replica", true)
	if resp := read(w0.Corpus.Datasets[0].Observations[0].URI.Value); !resp.Partial {
		t.Fatal("a read with a dead shard is not partial")
	}
	f.tr.setFail(primary(w1.Name), false)
	f.tr.setFail("shard-"+w1.Name+"-replica", false)

	var stats statsResponse
	if _, body := get(t, h, "/v1/stats"); json.Unmarshal(body, &stats) != nil {
		t.Fatalf("/v1/stats: %s", body)
	}
	for _, c := range []struct {
		what string
		got  int64
		name string
		min  int64
	}{
		{"/v1/stats hedgeFired", stats.HedgeFired, CtrHedgeFired, 1},
		{"/v1/stats hedgeWon", stats.HedgeWon, CtrHedgeWon, 1},
		{"/v1/stats partialReads", stats.PartialReads, CtrPartial, 1},
	} {
		if r := renderedCounter(t, g.rec, c.name); c.got < c.min || c.got != r {
			t.Errorf("%s = %d, want at least %d; /metrics %s = %d", c.what, c.got, c.min, c.name, r)
		}
	}
	if n := renderedCounter(t, g.rec, CtrRetries); n != 1 {
		t.Errorf("/metrics %s = %d, want 1 (the shed insert's retry)", CtrRetries, n)
	}
	if stats.Shards[2].Targets[0].Latency == nil {
		t.Error("the delayed primary's latency histogram is missing from /v1/stats")
	}
}
