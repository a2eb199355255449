package replica

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"rdfcube/internal/faultfs"
	"rdfcube/internal/obsv"
	"rdfcube/internal/serve"
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

// heldWriter is a ResponseWriter whose Write waits for release, so the
// request writing through it holds its in-flight slot until then.
type heldWriter struct {
	*httptest.ResponseRecorder
	writing, release chan struct{}
}

func (w heldWriter) Write(p []byte) (int, error) {
	close(w.writing)
	<-w.release
	return w.ResponseRecorder.Write(p)
}

// TestFollowerStatsReadItsRegistry: a follower built without a Recorder
// makes its own registry, shared with every server it installs, and its
// /v1/stats and /readyz read their counts from it. After replicated
// inserts, reads, a refused write and a shed, every count they report
// equals the counter of the same name /metrics renders.
func TestFollowerStatsReadItsRegistry(t *testing.T) {
	p := newPrimary(t)
	f, err := New(Config{
		Primary:      p.ts.URL,
		FS:           faultfs.NewMemFS(),
		SnapshotPath: "replica.bin",
		PollWait:     50 * time.Millisecond,
		MaxInFlight:  1,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	runFollower(t, f)
	waitHas(t, f, p.insert(t)) // bootstrapped
	var uri string
	for i := 0; i < 3; i++ {
		uri = p.insert(t)
	}
	waitHas(t, f, uri)
	h := f.Handler()
	serveAt := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}
	for _, path := range []string{"/v1/related?obs=0", "/v1/contains?obs=" + uri} {
		if rec := serveAt(path); rec.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, rec.Code)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/observations", strings.NewReader("{}")))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("insert on a follower: status %d, want 503", rec.Code)
	}

	held := heldWriter{httptest.NewRecorder(), make(chan struct{}), make(chan struct{})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(held, httptest.NewRequest("GET", "/v1/obs/0", nil))
	}()
	<-held.writing
	if rec := serveAt("/v1/obs/1"); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("read with the only slot held: status %d, want 429", rec.Code)
	}
	close(held.release)
	<-done

	var stats struct {
		Inserts     int64 `json:"inserts"`
		Replayed    int64 `json:"replayed"`
		Replication struct {
			Bootstraps int64 `json:"bootstraps"`
		} `json:"replication"`
	}
	var ready struct {
		Bootstraps int64 `json:"bootstraps"`
	}
	for path, v := range map[string]any{"/v1/stats": &stats, "/readyz": &ready} {
		if err := json.Unmarshal(serveAt(path).Body.Bytes(), v); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	for _, c := range []struct {
		what     string
		got      int64
		name     string
		min, max int64
	}{
		{"/v1/stats inserts", stats.Inserts, serve.CtrInserts, 0, 0},
		// The first insert is in the bootstrap image or replicated after it.
		{"/v1/stats replayed", stats.Replayed, serve.CtrWALReplayed, 3, 4},
		{"/v1/stats replication.bootstraps", stats.Replication.Bootstraps, CtrBootstraps, 1, 1},
		{"/readyz bootstraps", ready.Bootstraps, CtrBootstraps, 1, 1},
	} {
		if r := renderedCounter(t, f.rec, c.name); c.got < c.min || c.got > c.max || c.got != r {
			t.Errorf("%s = %d, want [%d, %d]; /metrics %s = %d", c.what, c.got, c.min, c.max, c.name, r)
		}
	}
	if n := renderedCounter(t, f.rec, serve.CtrShed); n != 1 {
		t.Errorf("/metrics %s = %d, want 1", serve.CtrShed, n)
	}
}

// TestStalenessGaugeGrowsWhilePrimaryIsDown: with the primary gone, the
// repl.staleness.us gauge keeps growing past MaxStaleness as /readyz
// turns stale, instead of holding the last healthy poll's value.
func TestStalenessGaugeGrowsWhilePrimaryIsDown(t *testing.T) {
	p := newPrimary(t)
	const maxStale = 200 * time.Millisecond
	f, err := New(Config{
		Primary:       p.ts.URL,
		PollWait:      50 * time.Millisecond,
		MaxStaleness:  maxStale,
		ReconnectBase: 10 * time.Millisecond,
		ReconnectMax:  50 * time.Millisecond,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	runFollower(t, f)
	waitHas(t, f, p.insert(t))
	p.ts.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		rec := httptest.NewRecorder()
		f.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
		stale := time.Duration(f.rec.Gauges()[GaugeStaleUS]) * time.Microsecond
		if rec.Code == http.StatusServiceUnavailable && stale >= maxStale {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("primary down for 10s: /readyz %d, %s = %v; want 503 and at least %v", rec.Code, GaugeStaleUS, stale, maxStale)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
