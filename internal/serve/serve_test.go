package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rdfcube/internal/core"
	"rdfcube/internal/faultfs"
	"rdfcube/internal/gen"
	"rdfcube/internal/leakcheck"
	"rdfcube/internal/obsv"
	"rdfcube/internal/snapshot"
)

// newPaperServer computes the paper example state and wraps it in a
// Server plus an httptest harness.
func newPaperServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	corpus := gen.PaperExample()
	s, res, err := core.ComputeCorpusCtx(context.Background(), corpus, core.AlgorithmCubeMasking, core.Options{})
	if err != nil {
		t.Fatalf("compute: %v", err)
	}
	srv, err := New(snapshot.New(s, res, nil), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decoding body: %v", url, err)
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("POST %s: decoding body: %v", url, err)
	}
	return resp.StatusCode
}

// TestRelatedMatchesFreshCompute cross-checks every observation's
// /v1/related fan-out against an independent recomputation of the
// relationship sets.
func TestRelatedMatchesFreshCompute(t *testing.T) {
	srv, ts := newPaperServer(t, Config{})

	// Independent ground truth.
	s, err := core.NewSpace(gen.PaperExample())
	if err != nil {
		t.Fatal(err)
	}
	want := core.NewResult()
	if err := core.Compute(s, core.AlgorithmBaseline, core.Options{}, want); err != nil {
		t.Fatal(err)
	}
	want.Sort()

	type ref struct {
		Obs int    `json:"obs"`
		URI string `json:"uri"`
	}
	type pref struct {
		Obs    int     `json:"obs"`
		Degree float64 `json:"degree"`
	}
	for i := 0; i < srv.inc.S.N(); i++ {
		var got struct {
			Obs                  int    `json:"obs"`
			URI                  string `json:"uri"`
			Contains             []ref  `json:"contains"`
			ContainedBy          []ref  `json:"containedBy"`
			PartiallyContains    []pref `json:"partiallyContains"`
			PartiallyContainedBy []pref `json:"partiallyContainedBy"`
			Complements          []ref  `json:"complements"`
		}
		if code := getJSON(t, fmt.Sprintf("%s/v1/related?obs=%d", ts.URL, i), &got); code != http.StatusOK {
			t.Fatalf("related obs=%d: status %d", i, code)
		}
		wantContains := map[int]bool{}
		wantContainedBy := map[int]bool{}
		for _, p := range want.FullSet {
			if p.A == i {
				wantContains[p.B] = true
			}
			if p.B == i {
				wantContainedBy[p.A] = true
			}
		}
		wantCompl := map[int]bool{}
		for _, p := range want.ComplSet {
			if p.A == i {
				wantCompl[p.B] = true
			}
			if p.B == i {
				wantCompl[p.A] = true
			}
		}
		checkRefs := func(kind string, got []ref, wantSet map[int]bool) {
			if len(got) != len(wantSet) {
				t.Fatalf("obs %d %s: got %d partners, want %d", i, kind, len(got), len(wantSet))
			}
			for _, r := range got {
				if !wantSet[r.Obs] {
					t.Fatalf("obs %d %s: unexpected partner %d", i, kind, r.Obs)
				}
			}
		}
		checkRefs("contains", got.Contains, wantContains)
		checkRefs("containedBy", got.ContainedBy, wantContainedBy)
		checkRefs("complements", got.Complements, wantCompl)

		for _, pr := range got.PartiallyContains {
			if !slices.Contains(want.PartialSet, core.Pair{A: i, B: pr.Obs}) {
				t.Fatalf("obs %d partiallyContains %d: not in fresh result", i, pr.Obs)
			}
			if deg := s.Degree(i, pr.Obs); deg != pr.Degree {
				t.Fatalf("obs %d partiallyContains %d: degree %v, want %v", i, pr.Obs, pr.Degree, deg)
			}
		}
		nPartial := 0
		for _, p := range want.PartialSet {
			if p.A == i {
				nPartial++
			}
		}
		if len(got.PartiallyContains) != nPartial {
			t.Fatalf("obs %d: %d partial partners, want %d", i, len(got.PartiallyContains), nPartial)
		}
	}
}

// TestResolveByURI exercises the ?obs=<full URI> spelling.
func TestResolveByURI(t *testing.T) {
	_, ts := newPaperServer(t, Config{})
	var got struct {
		Obs int    `json:"obs"`
		URI string `json:"uri"`
	}
	uri := gen.ExNS + "obs/o11"
	if code := getJSON(t, ts.URL+"/v1/contains?obs="+uri, &got); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if got.URI != uri {
		t.Fatalf("got uri %q, want %q", got.URI, uri)
	}
}

// TestInsertVisibleWithoutRestart inserts a clone of o35 into D3 and
// verifies the new observation answers queries immediately.
func TestInsertVisibleWithoutRestart(t *testing.T) {
	srv, ts := newPaperServer(t, Config{})
	n0 := srv.inc.S.N()

	var created struct {
		Obs     int    `json:"obs"`
		URI     string `json:"uri"`
		NewFull int    `json:"newFull"`
	}
	code := postJSON(t, ts.URL+"/v1/observations", map[string]any{
		"dataset": gen.ExNS + "dataset/D3",
		"uri":     gen.ExNS + "obs/o36",
		"dimensions": map[string]string{
			gen.DimRefArea.Value:   gen.GeoAustin.Value,
			gen.DimRefPeriod.Value: gen.Time2011.Value,
		},
		"measures": map[string]string{
			gen.MeasUnemployment.Value: "0.03",
		},
	}, &created)
	if code != http.StatusCreated {
		t.Fatalf("insert status %d", code)
	}
	if created.Obs != n0 {
		t.Fatalf("new observation got index %d, want %d", created.Obs, n0)
	}

	// The clone shares o35's coordinates, so it must fully contain o35 and
	// be fully contained by it (identical signature, same measure).
	var rel struct {
		Contains    []struct{ Obs int }
		ContainedBy []struct{ Obs int }
	}
	if code := getJSON(t, fmt.Sprintf("%s/v1/related?obs=%d", ts.URL, created.Obs), &rel); code != http.StatusOK {
		t.Fatalf("related status %d", code)
	}
	if len(rel.Contains) == 0 || len(rel.ContainedBy) == 0 {
		t.Fatalf("clone of o35 should have containment partners, got contains=%v containedBy=%v", rel.Contains, rel.ContainedBy)
	}

	// It resolves by URI and shows up in stats.
	var stats struct {
		Observations int   `json:"observations"`
		Inserts      int64 `json:"inserts"`
	}
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if stats.Observations != n0+1 || stats.Inserts != 1 {
		t.Fatalf("stats after insert: %+v", stats)
	}
}

// TestInsertErrors covers the rejection paths: unknown dataset, unknown
// dimension, duplicate URI, malformed body.
func TestInsertErrors(t *testing.T) {
	_, ts := newPaperServer(t, Config{})
	var e struct {
		Error string `json:"error"`
	}

	if code := postJSON(t, ts.URL+"/v1/observations", map[string]any{
		"dataset": "http://nope/", "uri": gen.ExNS + "obs/x",
	}, &e); code != http.StatusBadRequest {
		t.Fatalf("unknown dataset: status %d", code)
	}

	if code := postJSON(t, ts.URL+"/v1/observations", map[string]any{
		"dataset":    gen.ExNS + "dataset/D3",
		"uri":        gen.ExNS + "obs/x",
		"dimensions": map[string]string{"http://nope/dim": "v"},
	}, &e); code != http.StatusBadRequest {
		t.Fatalf("unknown dimension: status %d", code)
	}

	if code := postJSON(t, ts.URL+"/v1/observations", map[string]any{
		"dataset": gen.ExNS + "dataset/D3",
		"uri":     gen.ExNS + "obs/o31", // already exists
	}, &e); code != http.StatusConflict {
		t.Fatalf("duplicate URI: status %d", code)
	}

	resp, err := http.Post(ts.URL+"/v1/observations", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d", resp.StatusCode)
	}
}

// TestQueryErrors covers the read-side rejection paths.
func TestQueryErrors(t *testing.T) {
	_, ts := newPaperServer(t, Config{})
	for _, tc := range []struct {
		url  string
		want int
	}{
		{"/v1/contains", http.StatusBadRequest},                  // missing obs
		{"/v1/contains?obs=999", http.StatusBadRequest},          // out of range
		{"/v1/contains?obs=http://nope/", http.StatusBadRequest}, /* unknown URI */
		{"/v1/obs/999", http.StatusNotFound},
		{"/v1/obs/abc", http.StatusNotFound},
	} {
		resp, err := http.Get(ts.URL + tc.url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("GET %s: status %d, want %d", tc.url, resp.StatusCode, tc.want)
		}
	}
}

// TestHealthAndObs checks the liveness endpoints and the observation
// detail view.
func TestHealthAndObs(t *testing.T) {
	_, ts := newPaperServer(t, Config{})
	var m map[string]any
	if code := getJSON(t, ts.URL+"/healthz", &m); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if code := getJSON(t, ts.URL+"/readyz", &m); code != http.StatusOK {
		t.Fatalf("readyz status %d", code)
	}
	var obs struct {
		URI        string            `json:"uri"`
		Dataset    string            `json:"dataset"`
		Dimensions map[string]string `json:"dimensions"`
		Signature  []int             `json:"signature"`
	}
	if code := getJSON(t, ts.URL+"/v1/obs/0", &obs); code != http.StatusOK {
		t.Fatalf("obs status %d", code)
	}
	if obs.URI == "" || obs.Dataset == "" || len(obs.Dimensions) == 0 || len(obs.Signature) == 0 {
		t.Fatalf("obs detail incomplete: %+v", obs)
	}
}

// TestShedding fills the semaphore by hand and checks the 429 path.
func TestShedding(t *testing.T) {
	srv, ts := newPaperServer(t, Config{MaxInFlight: 1})
	srv.sem <- struct{}{} // occupy the only slot
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	<-srv.sem
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after draining: status %d", resp.StatusCode)
	}
}

// TestShedRetryAfterJitter: the 429 shed path carries a jittered
// Retry-After and counts serve.retry_after.
func TestShedRetryAfterJitter(t *testing.T) {
	leakcheck.Check(t)
	col := obsv.NewCollector()
	srv, ts := newPaperServer(t, Config{Recorder: col, MaxInFlight: 1})
	srv.sem <- struct{}{} // occupy the only slot
	defer func() { <-srv.sem }()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q", resp.Header.Get("Retry-After"))
	}
	if col.Snapshot()[CtrRetryAfter] == 0 {
		t.Error("serve.retry_after not counted")
	}
}

// TestRecorderCounters verifies the serve.* metric stream reaches the
// shared collector.
func TestRecorderCounters(t *testing.T) {
	col := obsv.NewCollector()
	_, ts := newPaperServer(t, Config{Recorder: col})
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	counters := col.Snapshot()
	if counters[CtrRequests] < 3 {
		t.Fatalf("requests counter %d, want >= 3", counters[CtrRequests])
	}
	if counters[CtrRequests+".stats"] != 3 {
		t.Fatalf("stats route counter %d, want 3", counters[CtrRequests+".stats"])
	}
}

// TestConcurrentReadsAndInserts interleaves live inserts with query
// traffic; run with -race this pins the single-writer/many-readers
// locking contract.
func TestConcurrentReadsAndInserts(t *testing.T) {
	_, ts := newPaperServer(t, Config{MaxInFlight: 256})
	const readers, writes = 8, 20

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			client := &http.Client{Timeout: 5 * time.Second}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				url := fmt.Sprintf("%s/v1/related?obs=%d", ts.URL, i%5)
				if i%3 == 0 {
					url = ts.URL + "/v1/stats"
				}
				resp, err := client.Get(url)
				if err != nil {
					return // server shutting down
				}
				resp.Body.Close()
			}
		}(r)
	}

	for i := 0; i < writes; i++ {
		var created map[string]any
		code := postJSON(t, ts.URL+"/v1/observations", map[string]any{
			"dataset": gen.ExNS + "dataset/D3",
			"uri":     fmt.Sprintf("%sobs/live%d", gen.ExNS, i),
			"dimensions": map[string]string{
				gen.DimRefArea.Value:   gen.GeoAthens.Value,
				gen.DimRefPeriod.Value: gen.TimeJan.Value,
			},
			"measures": map[string]string{gen.MeasUnemployment.Value: "0.11"},
		}, &created)
		if code != http.StatusCreated {
			t.Fatalf("insert %d: status %d (%v)", i, code, created)
		}
	}
	close(stop)
	wg.Wait()

	var stats struct {
		Observations int `json:"observations"`
		Inserts      int `json:"inserts"`
	}
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if stats.Inserts != writes {
		t.Fatalf("inserts %d, want %d", stats.Inserts, writes)
	}
}

// TestCheckpointRoundTrip snapshots a live server (after an insert) and
// verifies the bytes decode back to the same state.
func TestCheckpointRoundTrip(t *testing.T) {
	srv, ts := newPaperServer(t, Config{})
	var created map[string]any
	if code := postJSON(t, ts.URL+"/v1/observations", map[string]any{
		"dataset":    gen.ExNS + "dataset/D2",
		"uri":        gen.ExNS + "obs/o23",
		"dimensions": map[string]string{gen.DimRefArea.Value: gen.GeoGreece.Value, gen.DimRefPeriod.Value: gen.Time2001.Value},
		"measures":   map[string]string{gen.MeasUnemployment.Value: "0.18", gen.MeasPoverty.Value: "0.12"},
	}, &created); code != http.StatusCreated {
		t.Fatalf("insert status %d: %v", code, created)
	}

	rot := snapshot.NewRotator(faultfs.OS{}, t.TempDir()+"/live.snap")
	if err := srv.CheckpointWith(rot.Write); err != nil {
		t.Fatalf("CheckpointWith: %v", err)
	}
	sn, _, err := rot.Load()
	if err != nil {
		t.Fatalf("Rotator.Load: %v", err)
	}
	if sn.Space.N() != srv.inc.S.N() {
		t.Fatalf("reloaded %d observations, want %d", sn.Space.N(), srv.inc.S.N())
	}
	if len(sn.Result.FullSet) != len(srv.inc.Res.FullSet) ||
		len(sn.Result.PartialSet) != len(srv.inc.Res.PartialSet) ||
		len(sn.Result.ComplSet) != len(srv.inc.Res.ComplSet) {
		t.Fatal("reloaded result sets differ in size")
	}
	// The reloaded state must serve the inserted observation by URI.
	srv2, err := New(sn, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	var got struct {
		URI string `json:"uri"`
	}
	if code := getJSON(t, ts2.URL+"/v1/contains?obs="+gen.ExNS+"obs/o23", &got); code != http.StatusOK {
		t.Fatalf("reloaded server: status %d", code)
	}
}
