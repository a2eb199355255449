package loadgen

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"rdfcube/internal/core"
	"rdfcube/internal/gen"
	"rdfcube/internal/obsv"
	"rdfcube/internal/serve"
	"rdfcube/internal/snapshot"
)

// newServer computes a small realworld state and wraps it in a Server.
func newServer(t *testing.T, n int, seed int64) *serve.Server {
	t.Helper()
	corpus := gen.RealWorld(gen.RealWorldConfig{TotalObs: n, Seed: seed})
	s, res, err := core.ComputeCorpusCtx(context.Background(), corpus, core.AlgorithmCubeMasking, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(snapshot.New(s, res, nil), serve.Config{Recorder: obsv.NewCollector()})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestPlanDeterministic: same config, same corpus → byte-identical plan;
// a different seed changes it; and one plan's digest is the same as on
// every earlier commit.
func TestPlanDeterministic(t *testing.T) {
	// The golden: the only check of BuildPlan + gen.RealWorld ACROSS
	// commits (the rest of this test compares two builds in one process).
	// The benchmark times parent and change on plans built from the same
	// config and assumes they are the same requests; a change to the
	// generator, the mixes, the zipf draw or the body encoding moves this
	// digest, and must then say that numbers before and after it are not
	// comparable.
	golden := PlanConfig{Gen: "realworld", N: 2000, Seed: 1, Mix: "mixed", Requests: 4000}
	g, err := BuildPlan(golden, gen.RealWorld(gen.RealWorldConfig{TotalObs: golden.N, Seed: golden.Seed}))
	if err != nil {
		t.Fatal(err)
	}
	if want := "73217b548c73b06b"; g.Digest != want {
		t.Errorf("plan %+v has digest %s, want %s as on every commit since the load generator was added", golden, g.Digest, want)
	}

	cfg := PlanConfig{Gen: "realworld", N: 300, Seed: 7, Mix: "mixed", Requests: 400}
	corpus := gen.RealWorld(gen.RealWorldConfig{TotalObs: 300, Seed: 7})
	a, err := BuildPlan(cfg, corpus)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildPlan(cfg, gen.RealWorld(gen.RealWorldConfig{TotalObs: 300, Seed: 7}))
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest {
		t.Fatalf("same config produced different digests: %s vs %s", a.Digest, b.Digest)
	}
	if len(a.Ops) != 400 {
		t.Fatalf("plan length %d, want 400", len(a.Ops))
	}
	for i := range a.Ops {
		if a.Ops[i].Path != b.Ops[i].Path || string(a.Ops[i].Body) != string(b.Ops[i].Body) {
			t.Fatalf("op %d differs between identically-configured plans", i)
		}
	}
	cfg2 := cfg
	cfg2.Seed = 8
	c, err := BuildPlan(cfg2, corpus)
	if err != nil {
		t.Fatal(err)
	}
	if c.Digest == a.Digest {
		t.Fatal("different seeds produced the same plan digest")
	}
	// Every mix must expand without error.
	for _, mix := range Mixes() {
		m := cfg
		m.Mix = mix
		m.Requests = 50
		if _, err := BuildPlan(m, corpus); err != nil {
			t.Errorf("mix %s: %v", mix, err)
		}
	}
	if _, err := BuildPlan(PlanConfig{Mix: "nope"}, corpus); err == nil {
		t.Error("unknown mix accepted")
	}
}

// TestRunInProcessAndReport: an in-process run of every mix succeeds on
// every request — so a mix that names a route the server does not have
// fails here — its report is plausible, and WriteFile produces JSON that
// encoding/json reads back.
func TestRunInProcessAndReport(t *testing.T) {
	corpus := gen.RealWorld(gen.RealWorldConfig{TotalObs: 300, Seed: 7})
	for _, mix := range Mixes() {
		t.Run(mix, func(t *testing.T) {
			srv := newServer(t, 300, 7)
			cfg := PlanConfig{Gen: "realworld", N: 300, Seed: 7, Mix: mix, Requests: 300}
			plan, err := BuildPlan(cfg, corpus)
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{Transport: HandlerTransport{H: srv.Handler()}, Concurrency: 4}
			stats, err := Run(context.Background(), plan, opts)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Sent != 300 || stats.Good != 300 || stats.Errors != 0 {
				t.Fatalf("sent=%d good=%d errors=%d, want 300/300/0", stats.Sent, stats.Good, stats.Errors)
			}
			if got := stats.Hist.Snapshot().Count; got != 300 {
				t.Fatalf("latency histogram holds %d samples, want 300", got)
			}
			rep := NewReport(plan, opts, stats, "test")
			if rep.GoodputRPS <= 0 || rep.Latency.P99 < rep.Latency.P50 {
				t.Fatalf("implausible report: %+v", rep.Latency)
			}

			path := t.TempDir() + "/load.json"
			if err := rep.WriteFile(path); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var back LoadReport
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatalf("WriteFile wrote JSON that does not parse: %v", err)
			}
			if back.Config != rep.Config || back.PlanDigest != plan.Digest || back.Good != 300 || back.Latency != rep.Latency {
				t.Fatalf("report read back with config %+v, plan %s, %d good, latency %+v; wrote %+v, %s, 300, %+v",
					back.Config, back.PlanDigest, back.Good, back.Latency, rep.Config, plan.Digest, rep.Latency)
			}
		})
	}
}

// TestOpenLoopSheds: open-loop pacing far above what one blocked worker
// can absorb must count drops instead of slowing down the schedule.
func TestOpenLoopSheds(t *testing.T) {
	block := make(chan struct{})
	var h http.HandlerFunc = func(w http.ResponseWriter, r *http.Request) {
		<-block
		w.WriteHeader(http.StatusOK)
	}
	cfg := PlanConfig{Gen: "realworld", N: 300, Seed: 7, Mix: "explorer", Requests: 50}
	plan, err := BuildPlan(cfg, gen.RealWorld(gen.RealWorldConfig{TotalObs: 300, Seed: 7}))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *RunStats, 1)
	go func() {
		stats, err := Run(context.Background(), plan, Options{
			Transport:   HandlerTransport{H: h},
			Concurrency: 2,
			RPS:         5000,
		})
		if err != nil {
			t.Error(err)
		}
		done <- stats
	}()
	time.Sleep(200 * time.Millisecond)
	close(block)
	stats := <-done
	if stats.Dropped == 0 {
		t.Fatal("open-loop run with saturated workers dropped nothing")
	}
	if stats.Sent+stats.Dropped != 50 {
		t.Fatalf("sent %d + dropped %d != plan length 50", stats.Sent, stats.Dropped)
	}
}

// hostCountingTransport tallies requests per target host and method.
type hostCountingTransport struct {
	mu     sync.Mutex
	counts map[string]int // "host method" -> count
}

func (t *hostCountingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.mu.Lock()
	t.counts[req.URL.Host+" "+req.Method]++
	t.mu.Unlock()
	rec := httptest.NewRecorder()
	rec.WriteHeader(http.StatusOK)
	return rec.Result(), nil
}

// TestBaseURLsRoundRobinReadsPinWrites: with a target list, GETs spread
// evenly across every target while POSTs all land on the first (the
// leader).
func TestBaseURLsRoundRobinReadsPinWrites(t *testing.T) {
	var ops []Op
	for i := 0; i < 90; i++ {
		ops = append(ops, Op{Kind: OpStats, Method: http.MethodGet, Path: "/v1/stats"})
	}
	for i := 0; i < 10; i++ {
		ops = append(ops, Op{Kind: OpInsert, Method: http.MethodPost, Path: "/v1/observations", Body: []byte("{}")})
	}
	tr := &hostCountingTransport{counts: map[string]int{}}
	stats, err := Run(context.Background(), &Plan{Ops: ops}, Options{
		Transport:   tr,
		BaseURLs:    []string{"http://leader:1", "http://replica-a:1", "http://replica-b:1"},
		Concurrency: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Good != 100 {
		t.Fatalf("good %d, want 100", stats.Good)
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if got := tr.counts["leader:1 POST"]; got != 10 {
		t.Fatalf("leader got %d writes, want all 10 (counts: %v)", got, tr.counts)
	}
	for _, host := range []string{"leader:1", "replica-a:1", "replica-b:1"} {
		if got := tr.counts[host+" GET"]; got != 30 {
			t.Fatalf("%s got %d reads, want an even 30 (counts: %v)", host, got, tr.counts)
		}
	}
	for host := range tr.counts {
		if strings.HasSuffix(host, "POST") && host != "leader:1 POST" {
			t.Fatalf("a write escaped to %s (counts: %v)", host, tr.counts)
		}
	}
}

// scriptedTransport answers each request from a per-path script of
// canned responses, consuming one entry per attempt (the last entry
// repeats). It lets the retry tests control exactly what a polite
// client sees on each re-send.
type scriptedTransport struct {
	mu     sync.Mutex
	script map[string][]scriptedResp // keyed by METHOD PATH
	calls  map[string]int
}

type scriptedResp struct {
	status     int
	retryAfter string
	body       string
}

func (s *scriptedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := req.Method + " " + req.URL.Path
	if s.calls == nil {
		s.calls = map[string]int{}
	}
	seq := s.script[key]
	if len(seq) == 0 {
		panic("scriptedTransport: no script for " + key)
	}
	i := s.calls[key]
	if i >= len(seq) {
		i = len(seq) - 1
	}
	s.calls[key]++
	r := seq[i]
	rec := httptest.NewRecorder()
	if r.retryAfter != "" {
		rec.Header().Set("Retry-After", r.retryAfter)
	}
	rec.WriteHeader(r.status)
	rec.Body.WriteString(r.body)
	return rec.Result(), nil
}

// TestPoliteRetrySucceedsAfterShed: in Retry mode a 429 with a
// Retry-After hint is re-sent (the hint capped by RetryWaitCap so the
// test does not sleep a literal second) and the op ends Good with the
// re-sends counted; without Retry the same script just counts a Shed.
func TestPoliteRetrySucceedsAfterShed(t *testing.T) {
	script := func() *scriptedTransport {
		return &scriptedTransport{script: map[string][]scriptedResp{
			"GET /v1/related": {
				{status: http.StatusTooManyRequests, retryAfter: "1"},
				{status: http.StatusServiceUnavailable},
				{status: http.StatusOK, body: `{"uri":"x"}`},
			},
		}}
	}
	plan := &Plan{Ops: []Op{{Kind: OpRelated, Method: http.MethodGet, Path: "/v1/related"}}}

	tr := script()
	start := time.Now()
	stats, err := Run(context.Background(), plan, Options{
		Transport:    tr,
		Retry:        true,
		RetryWaitCap: 20 * time.Millisecond,
		Concurrency:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Good != 1 || stats.Shed != 0 || stats.Errors != 0 {
		t.Fatalf("polite run: good=%d shed=%d errors=%d, want 1/0/0", stats.Good, stats.Shed, stats.Errors)
	}
	if stats.Retried != 2 {
		t.Fatalf("retried %d, want 2 (one per shed response)", stats.Retried)
	}
	if tr.calls["GET /v1/related"] != 3 {
		t.Fatalf("transport saw %d attempts, want 3", tr.calls["GET /v1/related"])
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("polite run took %v; the 1s Retry-After hint was not capped", elapsed)
	}

	// The same script without Retry stops at the first answer: a shed.
	stats, err = Run(context.Background(), plan, Options{Transport: script(), Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Shed != 1 || stats.Good != 0 || stats.Retried != 0 {
		t.Fatalf("impolite run: good=%d shed=%d retried=%d, want 0/1/0", stats.Good, stats.Shed, stats.Retried)
	}
}

// TestPoliteRetryBounded: a server that sheds forever consumes exactly
// RetryMax re-sends and the op still lands in Shed.
func TestPoliteRetryBounded(t *testing.T) {
	tr := &scriptedTransport{script: map[string][]scriptedResp{
		"GET /v1/related": {{status: http.StatusTooManyRequests}},
	}}
	stats, err := Run(context.Background(),
		&Plan{Ops: []Op{{Kind: OpRelated, Method: http.MethodGet, Path: "/v1/related"}}},
		Options{Transport: tr, Retry: true, RetryMax: 2, RetryWaitCap: 5 * time.Millisecond, Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Shed != 1 || stats.Retried != 2 {
		t.Fatalf("shed=%d retried=%d, want 1 shed after exactly 2 re-sends", stats.Shed, stats.Retried)
	}
	if tr.calls["GET /v1/related"] != 3 {
		t.Fatalf("transport saw %d attempts, want 3 (original + RetryMax)", tr.calls["GET /v1/related"])
	}
}

// TestPartialResponsesCounted: answers flagged "partial": true by a
// degraded gate count as Good AND as Partial — the report separates
// complete from incomplete successes.
func TestPartialResponsesCounted(t *testing.T) {
	tr := &scriptedTransport{script: map[string][]scriptedResp{
		"GET /v1/related":  {{status: http.StatusOK, body: `{"uri":"x","contains":[],"partial":true,"missingShards":["g1"]}`}},
		"GET /v1/contains": {{status: http.StatusOK, body: `{"uri":"x","contains":[]}`}},
	}}
	stats, err := Run(context.Background(), &Plan{Ops: []Op{
		{Kind: OpRelated, Method: http.MethodGet, Path: "/v1/related"},
		{Kind: OpContains, Method: http.MethodGet, Path: "/v1/contains"},
	}}, Options{Transport: tr, Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Good != 2 {
		t.Fatalf("good %d, want 2 (partial answers still succeeded)", stats.Good)
	}
	if stats.Partial != 1 {
		t.Fatalf("partial %d, want 1", stats.Partial)
	}

	// The counts survive into the report and its rendering.
	plan := &Plan{Config: PlanConfig{Gen: "realworld", Mix: "mixed"}, Ops: nil, Digest: "d"}
	stats.Retried = 3
	rep := NewReport(plan, Options{}, stats, "")
	if rep.Partial != 1 || rep.Retried != 3 {
		t.Fatalf("report partial=%d retried=%d, want 1/3", rep.Partial, rep.Retried)
	}
	if txt := rep.Text(); !strings.Contains(txt, "partial answers 1") || !strings.Contains(txt, "polite retries 3") {
		t.Fatalf("report text missing partial/retry line:\n%s", txt)
	}
}
