package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rdfcube/internal/core"
	"rdfcube/internal/faultfs"
	"rdfcube/internal/gen"
	"rdfcube/internal/leakcheck"
	"rdfcube/internal/loadgen"
	"rdfcube/internal/obsv"
	"rdfcube/internal/snapshot"
	"rdfcube/internal/wal"
)

// paperSnapshotBytes encodes the paper-example state once so restart
// tests can decode a fresh, independent copy per server.
func paperSnapshotBytes(t *testing.T) []byte {
	t.Helper()
	corpus := gen.PaperExample()
	s, res, err := core.ComputeCorpusCtx(context.Background(), corpus, core.AlgorithmCubeMasking, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := snapshot.New(s, res, core.BuildLattice(s)).Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func decodeSnapshot(t *testing.T, data []byte) *snapshot.Snapshot {
	t.Helper()
	sn, err := snapshot.Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return sn
}

// newDurableServer builds a WAL-backed server over a MemFS so tests can
// crash the "disk" at will.
func newDurableServer(t *testing.T, m *faultfs.MemFS, snapBytes []byte, cfg Config) (*Server, *httptest.Server, *wal.Log) {
	t.Helper()
	wlog, recs, err := wal.Open(m, "cube.wal")
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	cfg.WAL = wlog
	srv, err := New(decodeSnapshot(t, snapBytes), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if len(recs) > 0 {
		if _, err := srv.Replay(recs); err != nil {
			t.Fatalf("Replay: %v", err)
		}
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, wlog
}

// insertBody builds a valid insert request for dataset D3 with a fresh
// URI suffix.
func insertBody(suffix string) map[string]any {
	return map[string]any{
		"dataset": gen.ExNS + "dataset/D3",
		"uri":     gen.ExNS + "obs/crash" + suffix,
		"dimensions": map[string]string{
			gen.DimRefArea.Value:   gen.GeoAthens.Value,
			gen.DimRefPeriod.Value: gen.TimeJan.Value,
		},
		"measures": map[string]string{gen.MeasUnemployment.Value: "0.11"},
	}
}

// TestPanicRecoveredAndCounted: a panicking handler yields a JSON 500,
// increments serve.panics with the stack logged, and the server keeps
// serving.
func TestPanicRecoveredAndCounted(t *testing.T) {
	col := obsv.NewCollector()
	var mu sync.Mutex
	var logged []string
	srv, ts := newPaperServer(t, Config{Recorder: col, Logf: func(format string, a ...any) {
		mu.Lock()
		logged = append(logged, fmt.Sprintf(format, a...))
		mu.Unlock()
	}})

	h := srv.wrap("boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "internal server error") {
		t.Fatalf("body %q", rec.Body.String())
	}
	if got := col.Snapshot()[CtrPanics]; got != 1 {
		t.Fatalf("%s = %d, want 1", CtrPanics, got)
	}
	if got := col.Snapshot()[CtrErrors]; got != 1 {
		t.Fatalf("%s = %d, want 1", CtrErrors, got)
	}
	mu.Lock()
	joined := strings.Join(logged, "\n")
	mu.Unlock()
	if !strings.Contains(joined, "kaboom") || !strings.Contains(joined, "goroutine") {
		t.Fatalf("panic log missing value or stack: %q", joined)
	}

	// The daemon survives: normal routes still answer.
	var m map[string]any
	if code := getJSON(t, ts.URL+"/healthz", &m); code != http.StatusOK {
		t.Fatalf("healthz after panic: %d", code)
	}
}

// TestPanicAfterWriteKeepsStatus: a handler that wrote 200 and then
// panicked must not get a second (500) header.
func TestPanicAfterWriteKeepsStatus(t *testing.T) {
	srv, _ := newPaperServer(t, Config{})
	h := srv.wrap("boom", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		panic("too late")
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/boom", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want the already-written 200", rec.Code)
	}
}

// TestAbandonedRequestStatuses: a request whose context is already
// canceled gets 499; one past its deadline gets 504; both count as
// serve.canceled.
func TestAbandonedRequestStatuses(t *testing.T) {
	col := obsv.NewCollector()
	srv, _ := newPaperServer(t, Config{Recorder: col})

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("GET", "/v1/related?obs=0", nil).WithContext(canceled)
	rec := httptest.NewRecorder()
	srv.wrap("related", srv.handleRelated).ServeHTTP(rec, req)
	if rec.Code != statusClientClosedRequest {
		t.Fatalf("canceled context: status %d, want 499", rec.Code)
	}

	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	req = httptest.NewRequest("GET", "/v1/contains?obs=0", nil).WithContext(expired)
	rec = httptest.NewRecorder()
	srv.wrap("contains", srv.handleContains).ServeHTTP(rec, req)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline: status %d, want 504", rec.Code)
	}

	if got := col.Snapshot()[CtrCanceled]; got != 2 {
		t.Fatalf("%s = %d, want 2", CtrCanceled, got)
	}
}

// TestAbandonedInsertNeverReachesWAL: an insert whose client hung up
// before the durable append must leave the log untouched — replay would
// otherwise resurrect a write nobody acknowledged.
func TestAbandonedInsertNeverReachesWAL(t *testing.T) {
	m := faultfs.NewMemFS()
	snap := paperSnapshotBytes(t)
	srv, _, wlog := newDurableServer(t, m, snap, Config{})

	body := bodyFor(t, insertBody("-abandoned"))
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("POST", "/v1/observations", body).WithContext(canceled)
	rec := httptest.NewRecorder()
	srv.wrap("insert", srv.handleInsert).ServeHTTP(rec, req)
	if rec.Code != statusClientClosedRequest {
		t.Fatalf("status %d, want 499", rec.Code)
	}
	if wlog.RecordBytes() != 0 {
		t.Fatalf("abandoned insert left %d bytes in the WAL", wlog.RecordBytes())
	}
	if srv.inc.S.N() != 10 {
		t.Fatalf("abandoned insert mutated the space: %d observations", srv.inc.S.N())
	}
}

func bodyFor(t *testing.T, v any) *bytes.Reader {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(data)
}

// TestKillRestartLosesNothingAcked is the headline crash-recovery
// property: a server acknowledges a stream of inserts, the machine dies
// (every unsynced byte vanishes), and the restarted server — previous
// snapshot + WAL replay — serves exactly the acknowledged observations.
func TestKillRestartLosesNothingAcked(t *testing.T) {
	m := faultfs.NewMemFS()
	snap := paperSnapshotBytes(t)
	_, ts, _ := newDurableServer(t, m, snap, Config{})

	const inserts = 7
	var acked []string
	for i := 0; i < inserts; i++ {
		b := insertBody(fmt.Sprintf("-%d", i))
		var created map[string]any
		if code := postJSON(t, ts.URL+"/v1/observations", b, &created); code != http.StatusCreated {
			t.Fatalf("insert %d: status %d (%v)", i, code, created)
		}
		acked = append(acked, b["uri"].(string))
	}

	// Power cut: clone the disk and drop every unsynced byte.
	crashed := m.Clone()
	crashed.Crash()

	// Restart: reopen the WAL, decode the pre-crash snapshot, replay.
	wlog2, recs, err := wal.Open(crashed, "cube.wal")
	if err != nil {
		t.Fatalf("reopening WAL after crash: %v", err)
	}
	defer wlog2.Close()
	if len(recs) != inserts {
		t.Fatalf("recovered %d WAL records, want %d", len(recs), inserts)
	}
	srv2, err := New(decodeSnapshot(t, snap), Config{WAL: wlog2})
	if err != nil {
		t.Fatal(err)
	}
	applied, err := srv2.Replay(recs)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if applied != inserts {
		t.Fatalf("replayed %d records, want %d", applied, inserts)
	}
	if srv2.inc.S.N() != 10+inserts {
		t.Fatalf("recovered space has %d observations, want %d", srv2.inc.S.N(), 10+inserts)
	}

	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	for _, uri := range acked {
		var got struct {
			URI string `json:"uri"`
		}
		if code := getJSON(t, ts2.URL+"/v1/contains?obs="+uri, &got); code != http.StatusOK {
			t.Fatalf("acked %s missing after restart: status %d", uri, code)
		}
	}

	// The recovered state must answer identically to a fresh recompute
	// over the same observations: compare against the live pre-crash
	// server's stats.
	var before, after struct {
		Full    int `json:"full"`
		Partial int `json:"partial"`
		Compl   int `json:"complementary"`
	}
	if code := getJSON(t, ts.URL+"/v1/stats", &before); code != http.StatusOK {
		t.Fatal(code)
	}
	if code := getJSON(t, ts2.URL+"/v1/stats", &after); code != http.StatusOK {
		t.Fatal(code)
	}
	if before != after {
		t.Fatalf("relationship counts diverged: live %+v vs recovered %+v", before, after)
	}
}

// TestUnackedInsertInvisibleAfterCrash: an insert refused with 503
// (append fault) must not reappear after recovery.
func TestUnackedInsertInvisibleAfterCrash(t *testing.T) {
	m := faultfs.NewMemFS()
	snap := paperSnapshotBytes(t)
	srv, ts, _ := newDurableServer(t, m, snap, Config{})

	// One good insert, acked.
	var created map[string]any
	if code := postJSON(t, ts.URL+"/v1/observations", insertBody("-good"), &created); code != http.StatusCreated {
		t.Fatalf("good insert: %d (%v)", code, created)
	}
	// Fault the next append: the insert is refused, never acked.
	m.Inject(faultfs.Fault{Op: faultfs.OpWrite, N: 1})
	var refused map[string]any
	if code := postJSON(t, ts.URL+"/v1/observations", insertBody("-lost"), &refused); code != http.StatusServiceUnavailable {
		t.Fatalf("faulted insert: status %d, want 503 (%v)", code, refused)
	}
	if !srv.Degraded() {
		t.Fatal("append failure did not degrade the server")
	}

	crashed := m.Clone()
	crashed.Crash()
	wlog2, recs, err := wal.Open(crashed, "cube.wal")
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer wlog2.Close()
	srv2, err := New(decodeSnapshot(t, snap), Config{WAL: wlog2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv2.Replay(recs); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if _, ok := srv2.uriIdx[gen.ExNS+"obs/crash-good"]; !ok {
		t.Fatal("acked insert lost")
	}
	if _, ok := srv2.uriIdx[gen.ExNS+"obs/crash-lost"]; ok {
		t.Fatal("unacked insert resurfaced after crash")
	}
}

// TestDegradedReadOnlyMode: after a WAL failure reads keep working,
// inserts return 503, and the health endpoints report the degradation.
func TestDegradedReadOnlyMode(t *testing.T) {
	col := obsv.NewCollector()
	m := faultfs.NewMemFS()
	snap := paperSnapshotBytes(t)
	_, ts, _ := newDurableServer(t, m, snap, Config{Recorder: col})

	m.Inject(faultfs.Fault{Op: faultfs.OpSync, N: 1, Persistent: true})
	var out map[string]any
	if code := postJSON(t, ts.URL+"/v1/observations", insertBody("-x"), &out); code != http.StatusServiceUnavailable {
		t.Fatalf("insert on dead log: status %d, want 503 (%v)", code, out)
	}
	// Fast path: a second insert is refused before touching the log.
	if code := postJSON(t, ts.URL+"/v1/observations", insertBody("-y"), &out); code != http.StatusServiceUnavailable {
		t.Fatalf("second insert: status %d, want 503", code)
	}

	// Reads still work.
	var rel map[string]any
	if code := getJSON(t, ts.URL+"/v1/related?obs=0", &rel); code != http.StatusOK {
		t.Fatalf("read in degraded mode: %d", code)
	}
	// healthz stays alive; readyz reports degraded but keeps the pod in
	// rotation for reads.
	var hz, rz map[string]any
	if code := getJSON(t, ts.URL+"/healthz", &hz); code != http.StatusOK || hz["state"] != "degraded" {
		t.Fatalf("healthz: code %d state %v", code, hz["state"])
	}
	if code := getJSON(t, ts.URL+"/readyz", &rz); code != http.StatusOK || rz["status"] != "degraded" {
		t.Fatalf("readyz: code %d status %v", code, rz["status"])
	}
	var stats struct {
		Degraded bool `json:"degraded"`
	}
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK || !stats.Degraded {
		t.Fatalf("stats: code %d degraded %v", code, stats.Degraded)
	}
	if g := col.Gauges()[GaugeDegraded]; g != 1 {
		t.Fatalf("%s gauge = %v, want 1", GaugeDegraded, g)
	}
}

// TestCheckpointsAreSerialized is the regression test for the
// SIGTERM-vs-timer checkpoint race: concurrent CheckpointWith calls must
// never run their commit functions concurrently.
func TestCheckpointsAreSerialized(t *testing.T) {
	m := faultfs.NewMemFS()
	snap := paperSnapshotBytes(t)
	srv, ts, wlog := newDurableServer(t, m, snap, Config{})

	var created map[string]any
	if code := postJSON(t, ts.URL+"/v1/observations", insertBody("-ckpt"), &created); code != http.StatusCreated {
		t.Fatalf("insert: %d", code)
	}
	if wlog.RecordBytes() == 0 {
		t.Fatal("insert did not reach the WAL")
	}

	var inFlight, maxSeen atomic.Int64
	commit := func(data []byte) error {
		cur := inFlight.Add(1)
		for {
			old := maxSeen.Load()
			if cur <= old || maxSeen.CompareAndSwap(old, cur) {
				break
			}
		}
		time.Sleep(5 * time.Millisecond) // widen the race window
		inFlight.Add(-1)
		if len(data) == 0 {
			return fmt.Errorf("empty snapshot")
		}
		return nil
	}

	var wg sync.WaitGroup
	const concurrent = 6
	errs := make([]error, concurrent)
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = srv.CheckpointWith(commit)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
	}
	if maxSeen.Load() != 1 {
		t.Fatalf("%d commits ran concurrently, want 1", maxSeen.Load())
	}
	// The WAL is truncated after the commit: its records are covered by
	// the committed snapshot.
	if wlog.RecordBytes() != 0 {
		t.Fatalf("WAL holds %d record bytes after checkpoint, want 0", wlog.RecordBytes())
	}
}

// TestCheckpointCommitFailureKeepsWAL: when the commit fails the WAL
// must NOT be truncated — its records are the only durable copy.
func TestCheckpointCommitFailureKeepsWAL(t *testing.T) {
	m := faultfs.NewMemFS()
	snap := paperSnapshotBytes(t)
	srv, ts, wlog := newDurableServer(t, m, snap, Config{})
	var created map[string]any
	if code := postJSON(t, ts.URL+"/v1/observations", insertBody("-keep"), &created); code != http.StatusCreated {
		t.Fatalf("insert: %d", code)
	}
	before := wlog.RecordBytes()
	if err := srv.CheckpointWith(func([]byte) error {
		return fmt.Errorf("disk full")
	}); err == nil {
		t.Fatal("failed commit reported success")
	}
	if wlog.RecordBytes() != before {
		t.Fatalf("failed checkpoint truncated the WAL: %d -> %d bytes", before, wlog.RecordBytes())
	}
}

// TestCheckpointWithinHungFsync is the shutdown regression: a checkpoint
// whose commit wedges in an uninterruptible fsync (a dead NFS mount)
// must not hang the daemon — CheckpointWithin abandons it at the bound
// and returns ErrCheckpointTimeout.
func TestCheckpointWithinHungFsync(t *testing.T) {
	leakcheck.Check(t)
	srv, err := New(decodeSnapshot(t, paperSnapshotBytes(t)), Config{})
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
	if !errors.Is(err, ErrCheckpointTimeout) {
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

// TestReplayIsIdempotent: replaying the same records twice applies them
// once — the crash-between-commit-and-truncate scenario.
func TestReplayIsIdempotent(t *testing.T) {
	m := faultfs.NewMemFS()
	snap := paperSnapshotBytes(t)
	_, ts, _ := newDurableServer(t, m, snap, Config{})
	var created map[string]any
	if code := postJSON(t, ts.URL+"/v1/observations", insertBody("-idem"), &created); code != http.StatusCreated {
		t.Fatalf("insert: %d", code)
	}

	crashed := m.Clone()
	crashed.Crash()
	wlog2, recs, err := wal.Open(crashed, "cube.wal")
	if err != nil {
		t.Fatal(err)
	}
	defer wlog2.Close()
	srv2, err := New(decodeSnapshot(t, snap), Config{WAL: wlog2})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := srv2.Replay(recs); err != nil || n != 1 {
		t.Fatalf("first replay: n=%d err=%v", n, err)
	}
	if n, err := srv2.Replay(recs); err != nil || n != 0 {
		t.Fatalf("second replay applied %d records (err=%v), want 0", n, err)
	}
	if srv2.inc.S.N() != 11 {
		t.Fatalf("space has %d observations, want 11", srv2.inc.S.N())
	}
}

// TestReplayRejectsMismatchedRecord: a WAL that disagrees with the
// snapshot (dataset index out of range) is an error, not a silent drop.
func TestReplayRejectsMismatchedRecord(t *testing.T) {
	snap := paperSnapshotBytes(t)
	srv, err := New(decodeSnapshot(t, snap), Config{})
	if err != nil {
		t.Fatal(err)
	}
	bad := []wal.Record{{Dataset: 99, URI: gen.DimRefArea}}
	if _, err := srv.Replay(bad); err == nil {
		t.Fatal("out-of-range dataset index accepted")
	}
}

// assertIndexMatchesResult: every list the server renders from equals the
// one core.NewIndex builds from scratch over a sorted copy of the server's
// result — the index grown insert by insert holds what a rebuild would.
func assertIndexMatchesResult(t *testing.T, what string, srv *Server) {
	t.Helper()
	res := &core.Result{
		FullSet:    slices.Clone(srv.inc.Res.FullSet),
		PartialSet: slices.Clone(srv.inc.Res.PartialSet),
		ComplSet:   slices.Clone(srv.inc.Res.ComplSet),
	}
	res.Sort()
	want := core.NewIndex(srv.inc.S, res)
	lists := []struct {
		name string
		list func(*core.Index, int) []int32
	}{
		{"Contains", (*core.Index).Contains},
		{"ContainedBy", (*core.Index).ContainedBy},
		{"PartiallyContains", (*core.Index).PartiallyContains},
		{"PartiallyContainedBy", (*core.Index).PartiallyContainedBy},
		{"Complements", (*core.Index).Complements},
	}
	for i := 0; i < srv.inc.S.N(); i++ {
		for _, l := range lists {
			if got, w := l.list(srv.index, i), l.list(want, i); !slices.Equal(got, w) {
				t.Fatalf("%s: %s(%d) = %v, a rebuilt index has %v", what, l.name, i, got, w)
			}
		}
	}
}

// TestIndexMatchesRebuild: after 200 live inserts, and again after the
// same inserts are replayed from the WAL onto a restarted server, the
// served index equals one rebuilt from the result sets.
func TestIndexMatchesRebuild(t *testing.T) {
	corpus := gen.RealWorld(gen.RealWorldConfig{TotalObs: 400, Seed: 11})
	s, res, err := core.ComputeCorpusCtx(context.Background(), corpus, core.AlgorithmCubeMasking, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := snapshot.New(s, res, core.BuildLattice(s)).Encode()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := loadgen.BuildPlan(loadgen.PlanConfig{Gen: "realworld", N: 400, Seed: 11, Mix: "ingest", Requests: 400}, corpus)
	if err != nil {
		t.Fatal(err)
	}

	m := faultfs.NewMemFS()
	srv, _, _ := newDurableServer(t, m, snap, Config{})
	h := srv.Handler()
	const inserts = 200
	done := 0
	for _, op := range plan.Ops {
		if op.Kind != loadgen.OpInsert || done == inserts {
			continue
		}
		if rec := fetch(t, h, op.Method, op.Path, op.Body); rec.Code != http.StatusCreated {
			t.Fatalf("insert %d: status %d: %s", done, rec.Code, rec.Body.Bytes())
		}
		done++
	}
	if done != inserts {
		t.Fatalf("plan held %d inserts, want %d", done, inserts)
	}
	assertIndexMatchesResult(t, "after live inserts", srv)

	restarted, _, _ := newDurableServer(t, m.Clone(), snap, Config{})
	if restarted.inc.S.N() != srv.inc.S.N() {
		t.Fatalf("restarted server holds %d observations, want %d", restarted.inc.S.N(), srv.inc.S.N())
	}
	assertIndexMatchesResult(t, "after WAL replay", restarted)
}
