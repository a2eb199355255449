package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"rdfcube/internal/core"
	"rdfcube/internal/faultfs"
	"rdfcube/internal/gen"
	"rdfcube/internal/leakcheck"
	"rdfcube/internal/obsv"
	"rdfcube/internal/snapshot"
)

// newRealServer builds a server over a RealWorld corpus large enough
// that a recompute spans several guard strides — the fixture for
// deadline and cancellation tests.
func newRealServer(t *testing.T, n int, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	corpus := gen.RealWorld(gen.RealWorldConfig{TotalObs: n, Seed: 3})
	s, res, err := core.ComputeCorpusCtx(context.Background(), corpus, core.AlgorithmCubeMasking, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(snapshot.New(s, res, nil), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		http.DefaultClient.CloseIdleConnections()
	})
	return srv, ts
}

// TestBreakerStateMachine drives the circuit breaker through its full
// closed → open → half-open → closed cycle, including the doubled
// backoff of a failed probe.
func TestBreakerStateMachine(t *testing.T) {
	b := NewBreaker(2, 100*time.Millisecond)
	now := time.Now()

	if ok, _ := b.Allow(now); !ok {
		t.Fatal("closed breaker must allow")
	}
	b.Failure(now)
	if st, _ := b.Snapshot(); st != "closed" {
		t.Fatalf("one failure below threshold must keep the circuit closed, got %s", st)
	}
	if !b.Failure(now) {
		t.Fatal("the tripping failure must report the transition")
	}
	if st, _ := b.Snapshot(); st != "open" {
		t.Fatalf("want open after threshold failures, got %s", st)
	}
	if ok, wait := b.Allow(now); ok || wait <= 0 {
		t.Fatalf("open breaker must refuse with a positive retry hint, got ok=%v wait=%v", ok, wait)
	}

	// Past the backoff: exactly one half-open probe is admitted.
	later := now.Add(time.Second)
	if ok, _ := b.Allow(later); !ok {
		t.Fatal("expired open interval must admit a probe")
	}
	if ok, _ := b.Allow(later); ok {
		t.Fatal("second caller during the probe must be refused")
	}

	// Probe fails: re-open with doubled backoff.
	b.Failure(later)
	if st, _ := b.Snapshot(); st != "open" {
		t.Fatalf("failed probe must re-open, got %s", st)
	}
	if b.bo.Current() != 200*time.Millisecond {
		t.Fatalf("failed probe must double the backoff, got %v", b.bo.Current())
	}

	// Next probe succeeds: closed, streak reset.
	if ok, _ := b.Allow(later.Add(time.Second)); !ok {
		t.Fatal("second probe must be admitted")
	}
	b.Success()
	if st, fails := b.Snapshot(); st != "closed" || fails != 0 {
		t.Fatalf("successful probe must close and reset, got %s/%d", st, fails)
	}
}

// TestJitteredRange: jitter spreads over [d/2, d) so synchronized
// clients desynchronize.
func TestJitteredRange(t *testing.T) {
	d := 8 * time.Second
	for i := 0; i < 100; i++ {
		j := Jittered(d)
		if j < d/2 || j >= d {
			t.Fatalf("jittered(%v) = %v outside [%v, %v)", d, j, d/2, d)
		}
	}
}

// TestRecomputeSuccess: a recompute returns the fresh counts, swaps the
// state in, and counts serve.recomputes.
func TestRecomputeSuccess(t *testing.T) {
	leakcheck.Check(t)
	col := obsv.NewCollector()
	srv, ts := newRealServer(t, 300, Config{Recorder: col, Algorithm: core.AlgorithmCubeMasking})

	var before struct {
		Full    int `json:"full"`
		Partial int `json:"partial"`
		Compl   int `json:"complementary"`
	}
	getJSON(t, ts.URL+"/v1/stats", &before)

	var out struct {
		Algorithm string  `json:"algorithm"`
		Full      int     `json:"full"`
		Partial   int     `json:"partial"`
		Compl     int     `json:"complementary"`
		Elapsed   float64 `json:"elapsedSeconds"`
	}
	if code := postJSON(t, ts.URL+"/v1/recompute", map[string]any{}, &out); code != http.StatusOK {
		t.Fatalf("recompute: status %d", code)
	}
	if out.Algorithm != "cubemasking" {
		t.Errorf("algorithm = %q", out.Algorithm)
	}
	// A batch recompute over an unchanged space reproduces the loaded
	// state exactly (the incremental state was built by the same kernel).
	if out.Full != before.Full || out.Partial != before.Partial || out.Compl != before.Compl {
		t.Errorf("recompute changed counts: %+v vs %+v", out, before)
	}
	if col.Snapshot()[CtrRecomputes] != 1 {
		t.Errorf("serve.recomputes = %v, want 1", col.Snapshot()[CtrRecomputes])
	}
	if st, _ := srv.breaker.Snapshot(); st != "closed" {
		t.Errorf("breaker after success = %s", st)
	}
}

// TestRecomputeDeadline504TripsBreaker: chronic deadline overruns answer
// 504, keep the previous state serving, and after BreakerThreshold
// consecutive failures the circuit opens — further recomputes get an
// immediate 503 with a jittered Retry-After while queries keep working.
func TestRecomputeDeadline504TripsBreaker(t *testing.T) {
	leakcheck.Check(t)
	col := obsv.NewCollector()
	_, ts := newRealServer(t, 800, Config{
		Recorder:         col,
		Algorithm:        core.AlgorithmBaseline, // Θ(n²): reliably overruns a nanosecond budget
		RecomputeTimeout: time.Nanosecond,
		BreakerThreshold: 2,
	})

	var before struct {
		Full int `json:"full"`
	}
	getJSON(t, ts.URL+"/v1/stats", &before)

	for i := 0; i < 2; i++ {
		var out map[string]any
		if code := postJSON(t, ts.URL+"/v1/recompute", nil, &out); code != http.StatusGatewayTimeout {
			t.Fatalf("overrun %d: status %d, want 504 (%v)", i, code, out)
		}
	}

	// Circuit open: refused without running the kernel, with a retry hint.
	resp, err := http.Post(ts.URL+"/v1/recompute", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open circuit: status %d, want 503", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("open circuit: Retry-After = %q, want an integer >= 1", resp.Header.Get("Retry-After"))
	}
	snap := col.Snapshot()
	if snap[CtrBreakerOpen] == 0 {
		t.Error("serve.breaker.open not counted")
	}
	if snap[CtrRetryAfter] == 0 {
		t.Error("serve.retry_after not counted")
	}

	// Degraded but consistent: the previous state still answers queries.
	var after struct {
		Full    int    `json:"full"`
		Breaker string `json:"recomputeBreaker"`
	}
	if code := getJSON(t, ts.URL+"/v1/stats", &after); code != http.StatusOK {
		t.Fatalf("stats while open: %d", code)
	}
	if after.Full != before.Full {
		t.Errorf("failed recomputes must not change the served state: %d vs %d", after.Full, before.Full)
	}
	if after.Breaker != "open" {
		t.Errorf("stats breaker state = %q, want open", after.Breaker)
	}
}

// TestRecomputeClientGone499: a request whose client already hung up is
// answered 499 without running the kernel and without charging the
// breaker.
func TestRecomputeClientGone499(t *testing.T) {
	leakcheck.Check(t)
	srv, _ := newRealServer(t, 300, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := httptest.NewRequest(http.MethodPost, "/v1/recompute", nil).WithContext(ctx)
	w := httptest.NewRecorder()
	srv.handleRecompute(w, r)
	if w.Code != statusClientClosedRequest {
		t.Fatalf("status %d, want %d", w.Code, statusClientClosedRequest)
	}
	if st, fails := srv.breaker.Snapshot(); st != "closed" || fails != 0 {
		t.Errorf("client hang-up charged the breaker: %s/%d", st, fails)
	}
}

// TestRecomputeShutdown503: BeginShutdown cancels an in-flight recompute
// through the run context; the endpoint answers 503 and the breaker is
// not charged (shutdown is not a kernel failure).
func TestRecomputeShutdown503(t *testing.T) {
	leakcheck.Check(t)
	srv, _ := newRealServer(t, 800, Config{Algorithm: core.AlgorithmBaseline})
	srv.BeginShutdown()
	r := httptest.NewRequest(http.MethodPost, "/v1/recompute", nil)
	w := httptest.NewRecorder()
	srv.handleRecompute(w, r)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", w.Code)
	}
	if st, fails := srv.breaker.Snapshot(); st != "closed" || fails != 0 {
		t.Errorf("shutdown cancellation charged the breaker: %s/%d", st, fails)
	}
}

// TestRecomputeSingleFlight429: a second concurrent recompute is shed
// with 429 and a Retry-After hint instead of queueing behind the write
// lock.
func TestRecomputeSingleFlight429(t *testing.T) {
	leakcheck.Check(t)
	srv, _ := newRealServer(t, 300, Config{})
	srv.recomputing.Store(true)
	defer srv.recomputing.Store(false)
	r := httptest.NewRequest(http.MethodPost, "/v1/recompute", nil)
	w := httptest.NewRecorder()
	srv.handleRecompute(w, r)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", w.Code)
	}
	if ra, err := strconv.Atoi(w.Header().Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want an integer >= 1", w.Header().Get("Retry-After"))
	}
}

// TestCheckpointWithinHungFsync is the shutdown regression: a checkpoint
// whose commit wedges in an uninterruptible fsync (a dead NFS mount)
// must not hang the daemon — CheckpointWithin abandons it at the bound
// and returns ErrCheckpointTimeout.
func TestCheckpointWithinHungFsync(t *testing.T) {
	leakcheck.Check(t)
	corpus := gen.PaperExample()
	s, res, err := core.ComputeCorpusCtx(context.Background(), corpus, core.AlgorithmCubeMasking, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(snapshot.New(s, res, nil), Config{})
	if err != nil {
		t.Fatal(err)
	}

	mem := faultfs.NewMemFS()
	block := make(chan struct{})
	mem.Inject(faultfs.Fault{Op: faultfs.OpSync, N: 1, Block: block})
	rot := snapshot.NewRotator(mem, "idx.bin")

	start := time.Now()
	err = srv.CheckpointWithin(100*time.Millisecond, rot.Write)
	elapsed := time.Since(start)
	if err == nil || !errorsIs(err, ErrCheckpointTimeout) {
		t.Fatalf("want ErrCheckpointTimeout, got %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("CheckpointWithin took %v; the bound did not hold", elapsed)
	}
	// Release the wedged fsync so the abandoned goroutine can finish and
	// the leak check passes — modeling the device coming back.
	close(block)

	// The checkpoint path is not poisoned: a later checkpoint (the device
	// recovered) succeeds.
	if err := srv.CheckpointWithin(5*time.Second, rot.Write); err != nil {
		t.Fatalf("checkpoint after recovery: %v", err)
	}
}

// errorsIs avoids importing errors just for one call (and keeps the
// test's intent obvious).
func errorsIs(err, target error) bool {
	for err != nil {
		if err == target {
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// TestShedRetryAfterJitter: the 429 shed path carries a jittered
// Retry-After and counts serve.retry_after.
func TestShedRetryAfterJitter(t *testing.T) {
	leakcheck.Check(t)
	col := obsv.NewCollector()
	srv, ts := newRealServer(t, 30, Config{Recorder: col, MaxInFlight: 1})
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
