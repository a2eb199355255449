package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"rdfcube/internal/faultfs"
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

// TestPrimaryStatsReadItsRegistry: a primary built without a Recorder
// makes its own registry, and /v1/stats reads its counts from it. After a
// boot replay, reads, inserts and a shed, every count /v1/stats reports
// equals the counter of the same name /metrics renders.
func TestPrimaryStatsReadItsRegistry(t *testing.T) {
	m := faultfs.NewMemFS()
	snap := paperSnapshotBytes(t)
	first, _, wlog := newDurableServer(t, m, snap, Config{})
	for i := 0; i < 2; i++ {
		body, _ := json.Marshal(insertBody(fmt.Sprintf("-logged-%d", i)))
		if rec := fetch(t, first.Handler(), "POST", "/v1/observations", body); rec.Code != http.StatusCreated {
			t.Fatalf("logged insert: status %d %s", rec.Code, rec.Body)
		}
	}
	wlog.Close()

	srv, _, _ := newDurableServer(t, m, snap, Config{MaxInFlight: 1}) // replays both records
	h := srv.Handler()
	for _, path := range []string{"/v1/related?obs=0", "/v1/contains?obs=1", "/v1/obs/2"} {
		if rec := fetch(t, h, "GET", path, nil); rec.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, rec.Code)
		}
	}
	body, _ := json.Marshal(insertBody("-live"))
	if rec := fetch(t, h, "POST", "/v1/observations", body); rec.Code != http.StatusCreated {
		t.Fatalf("live insert: status %d %s", rec.Code, rec.Body)
	}
	srv.sem <- struct{}{} // occupy the only slot
	if rec := fetch(t, h, "GET", "/v1/related?obs=0", nil); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("read with the slot taken: status %d, want 429", rec.Code)
	}
	<-srv.sem

	var stats map[string]any
	if err := json.Unmarshal(fetch(t, h, "GET", "/v1/stats", nil).Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]struct {
		name string
		n    int64
	}{"inserts": {CtrInserts, 1}, "replayed": {CtrWALReplayed, 2}} {
		got, ok := stats[key].(float64)
		if !ok || int64(got) != want.n {
			t.Errorf("/v1/stats %s = %v, want %d", key, stats[key], want.n)
		}
		if r := renderedCounter(t, srv.rec, want.name); int64(got) != r {
			t.Errorf("/v1/stats %s = %v, /metrics %s = %d", key, got, want.name, r)
		}
	}
	if n := renderedCounter(t, srv.rec, CtrShed); n != 1 {
		t.Errorf("/metrics %s = %d, want 1", CtrShed, n)
	}
}
