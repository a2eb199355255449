package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
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
func paperSnapshotBytes(t testing.TB) []byte {
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

func decodeSnapshot(t testing.TB, data []byte) *snapshot.Snapshot {
	t.Helper()
	sn, err := snapshot.Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return sn
}

// servedState decodes the image srv checkpoints: its space and the
// relationship sets its index holds.
func servedState(t testing.TB, srv *Server) *snapshot.Snapshot {
	t.Helper()
	data, err := srv.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	return decodeSnapshot(t, data)
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

// TestDeadlineWhileWaitingForWriteLock: a read that waits for the write
// lock past its deadline answers the documented 504 with its trace ID
// once it gets the lock, and that is the answer the trace ring, the
// canceled counter and the client all see.
func TestDeadlineWhileWaitingForWriteLock(t *testing.T) {
	col := obsv.NewCollector()
	srv, ts := newPaperServer(t, Config{Recorder: col, RequestTimeout: 20 * time.Millisecond})

	srv.mu.Lock()
	go func() {
		time.Sleep(200 * time.Millisecond)
		srv.mu.Unlock()
	}()
	req, err := http.NewRequest("GET", ts.URL+"/v1/related?obs=0", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(TraceIDHeader, "lock-deadline")
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]string
	err = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("body not JSON: %v", err)
	}
	if resp.StatusCode != http.StatusGatewayTimeout || body["traceId"] != "lock-deadline" {
		t.Fatalf("status %d body %v, want 504 carrying traceId lock-deadline", resp.StatusCode, body)
	}
	if waited := time.Since(start); waited < 150*time.Millisecond {
		t.Fatalf("answered after %v, before the write lock was released", waited)
	}

	var traces tracesResponse
	if code := getJSON(t, ts.URL+"/debug/traces?id=lock-deadline", &traces); code != http.StatusOK || len(traces.Traces) != 1 {
		t.Fatalf("/debug/traces: status %d, %d traces", code, len(traces.Traces))
	}
	if got := traces.Traces[0].Status; got != resp.StatusCode {
		t.Fatalf("the trace ring recorded %d, the client got %d", got, resp.StatusCode)
	}
	if got := col.Snapshot()[CtrCanceled]; got != 1 {
		t.Fatalf("%s = %d, want 1", CtrCanceled, got)
	}
}

// slowSyncFS is a filesystem whose appended files' Sync, once stall is
// armed, waits until the armed channel is closed and then succeeds: a
// slow disk, not a failed one. (faultfs's Block fault fails the operation
// once released.)
type slowSyncFS struct {
	faultfs.FS
	stall *atomic.Pointer[chan struct{}]
}

func (f slowSyncFS) OpenAppend(path string) (faultfs.File, error) {
	h, err := f.FS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return slowSyncFile{File: h, stall: f.stall}, nil
}

type slowSyncFile struct {
	faultfs.File
	stall *atomic.Pointer[chan struct{}]
}

func (f slowSyncFile) Sync() error {
	if c := f.stall.Load(); c != nil {
		<-*c
	}
	return f.File.Sync()
}

// TestInsertFsyncPastDeadlineAnswers201: an insert whose fsync outlasts
// the request deadline is durable and applied when the fsync returns, so
// it answers 201 — not a timeout a retrying client would meet as 409.
func TestInsertFsyncPastDeadlineAnswers201(t *testing.T) {
	stall := new(atomic.Pointer[chan struct{}])
	m := faultfs.NewMemFS()
	wlog, _, err := wal.Open(slowSyncFS{FS: m, stall: stall}, "cube.wal")
	if err != nil {
		t.Fatal(err)
	}
	defer wlog.Close()
	srv, err := New(decodeSnapshot(t, paperSnapshotBytes(t)), Config{WAL: wlog, RequestTimeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	release := make(chan struct{})
	stall.Store(&release)
	go func() {
		time.Sleep(200 * time.Millisecond)
		close(release)
	}()
	var created map[string]any
	if code := postJSON(t, ts.URL+"/v1/observations", insertBody("-slow-fsync"), &created); code != http.StatusCreated {
		t.Fatalf("insert through a slow fsync: status %d (%v), want 201", code, created)
	}
	if srv.Degraded() || wlog.RecordBytes() == 0 || srv.inc.S.N() != 11 {
		t.Fatalf("degraded %v, %d WAL record bytes, %d observations: want a logged, applied insert",
			srv.Degraded(), wlog.RecordBytes(), srv.inc.S.N())
	}
}

// stalledWriter is a ResponseWriter whose Write blocks until release is
// closed: a client that leaves its socket unread. entered is closed at
// the first Write.
type stalledWriter struct {
	h       http.Header
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (w *stalledWriter) Header() http.Header { return w.h }
func (w *stalledWriter) WriteHeader(int)     {}
func (w *stalledWriter) Write(b []byte) (int, error) {
	w.once.Do(func() { close(w.entered) })
	<-w.release
	return len(b), nil
}

// TestUnreadAnswerHoldsNoLock: every handler that takes s.mu writes its
// answer after releasing it, so a client that stops reading one — a
// fan-out body, an error, an insert's or a registration's answer — does
// not stop another client's insert (nor, behind a waiting writer, every
// later read).
func TestUnreadAnswerHoldsNoLock(t *testing.T) {
	srv, _ := newPaperServer(t, Config{})
	h := srv.Handler()
	mustJSON := func(v any) []byte {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for k, tc := range []struct {
		name, method, target string
		body                 []byte
	}{
		{"related", "GET", "/v1/related?obs=0", nil},
		{"contains", "GET", "/v1/contains?obs=0", nil},
		{"complements", "GET", "/v1/complements?obs=0", nil},
		{"unknown observation", "GET", "/v1/related?obs=nope", nil},
		{"obs", "GET", "/v1/obs/0", nil},
		{"stats", "GET", "/v1/stats", nil},
		{"insert", "POST", "/v1/observations", mustJSON(insertBody("-unread"))},
		{"duplicate insert", "POST", "/v1/observations", mustJSON(insertBody("-unread"))},
		{"dataset", "POST", "/v1/datasets", mustJSON(datasetBody(gen.ExNS + "dataset/D-unread"))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := &stalledWriter{h: http.Header{}, entered: make(chan struct{}), release: make(chan struct{})}
			served := make(chan struct{})
			go func() {
				h.ServeHTTP(w, httptest.NewRequest(tc.method, tc.target, bytes.NewReader(tc.body)))
				close(served)
			}()
			defer func() {
				close(w.release)
				<-served
			}()
			select {
			case <-w.entered:
			case <-time.After(10 * time.Second):
				t.Fatal("the handler never wrote its answer")
			}
			beside := mustJSON(insertBody(fmt.Sprintf("-beside-%d", k)))
			inserted := make(chan *httptest.ResponseRecorder, 1)
			go func() { inserted <- fetch(t, h, "POST", "/v1/observations", beside) }()
			select {
			case rec := <-inserted:
				if rec.Code != http.StatusCreated {
					t.Fatalf("insert beside an unread answer: status %d: %s", rec.Code, rec.Body.Bytes())
				}
			case <-time.After(5 * time.Second):
				t.Fatal("an insert waited behind an unread answer")
			}
		})
	}
}

// TestUnreadAnswerReleasesItsSlot: a client that pipelines requests for
// a large answer and reads none of them holds its in-flight slot for one
// request timeout once its answer stalls, not for good — the next client
// is admitted.
func TestUnreadAnswerReleasesItsSlot(t *testing.T) {
	corpus := gen.RealWorld(gen.RealWorldConfig{TotalObs: 1500, Seed: 1})
	sp, res, err := core.ComputeCorpusCtx(context.Background(), corpus, core.AlgorithmCubeMasking, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(snapshot.New(sp, res, nil), Config{MaxInFlight: 1, RequestTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	big, most := 0, 0
	for i := 0; i < srv.inc.S.N(); i++ {
		if n := fetch(t, h, "GET", fmt.Sprintf("/v1/related?obs=%d", i), nil).Body.Len(); n > most {
			big, most = i, n
		}
	}
	ts := httptest.NewServer(h)
	defer ts.Close()
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := fmt.Sprintf("GET /v1/related?obs=%d HTTP/1.1\r\nHost: cube\r\n\r\n", big)
	if _, err := conn.Write([]byte(strings.Repeat(req, 256))); err != nil {
		t.Fatal(err)
	}
	// 256 answers of most bytes each overflow the socket buffers well
	// within this pause; from then on the connection's handler is stuck
	// in its write.
	time.Sleep(time.Second)
	deadline := time.Now().Add(3 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("/v1/stats: status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			t.Fatalf("an unread %d-byte answer still holds the only in-flight slot", most)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// panicOnCount is a Recorder that panics when the named counter moves.
type panicOnCount struct {
	obsv.Recorder
	name string
}

func (p panicOnCount) Count(name string, delta int64) {
	if name == p.name {
		panic("injected at " + name)
	}
	p.Recorder.Count(name, delta)
}

// TestPanicUnderLockReleasesIt: a handler that panics while it holds s.mu
// releases the lock as it unwinds, so the recovered 500 is not followed
// by a daemon whose every later request waits for the lock. The panic is
// injected through the space's recorder, which the insert kernel counts
// into under the write lock.
func TestPanicUnderLockReleasesIt(t *testing.T) {
	srv, _ := newPaperServer(t, Config{})
	srv.inc.S.SetRecorder(panicOnCount{Recorder: srv.inc.S.Recorder(), name: core.CtrIncInserts})
	h := srv.Handler()
	body, err := json.Marshal(insertBody("-panic"))
	if err != nil {
		t.Fatal(err)
	}
	if rec := fetch(t, h, "POST", "/v1/observations", body); rec.Code != http.StatusInternalServerError {
		t.Fatalf("insert that panics under the write lock: status %d, want 500", rec.Code)
	}
	stats := make(chan int, 1)
	go func() { stats <- fetch(t, h, "GET", "/v1/stats", nil).Code }()
	select {
	case code := <-stats:
		if code != http.StatusOK {
			t.Fatalf("/v1/stats after the panic: status %d", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the write lock stayed held after a recovered panic")
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

// assertIndexMatchesRebuild: every list the server renders from equals the
// one core.NewIndex builds from scratch over the decoded image of the
// server's state — the index grown insert by insert holds what a rebuild
// would, and its inverse lists (ContainedBy, PartiallyContainedBy, which
// the image does not carry) agree with the lists the image is walked from.
func assertIndexMatchesRebuild(t *testing.T, what string, srv *Server) {
	t.Helper()
	held := servedState(t, srv)
	want := core.NewIndex(held.Space, held.Result)
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
	if held.Space.N() != srv.inc.S.N() {
		t.Fatalf("%s: the image holds %d observations, the server %d", what, held.Space.N(), srv.inc.S.N())
	}
	for i := 0; i < srv.inc.S.N(); i++ {
		for _, l := range lists {
			if got, w := l.list(srv.index, i), l.list(want, i); !slices.Equal(got, w) {
				t.Fatalf("%s: %s(%d) = %v, a rebuilt index has %v", what, l.name, i, got, w)
			}
		}
	}
}

// grownServers serves a RealWorld state (n = 400), pushes 200 live inserts
// through the handler of a durable server, and restarts a second server
// from the pre-insert snapshot and the WAL the first one wrote. It returns
// the live server, the restarted one and the pre-insert snapshot.
func grownServers(t *testing.T) (live, restarted *Server, snap []byte) {
	t.Helper()
	corpus := gen.RealWorld(gen.RealWorldConfig{TotalObs: 400, Seed: 11})
	s, res, err := core.ComputeCorpusCtx(context.Background(), corpus, core.AlgorithmCubeMasking, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap, err = snapshot.New(s, res, core.BuildLattice(s)).Encode()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := loadgen.BuildPlan(loadgen.PlanConfig{Gen: "realworld", N: 400, Seed: 11, Mix: "ingest", Requests: 400}, corpus)
	if err != nil {
		t.Fatal(err)
	}

	m := faultfs.NewMemFS()
	live, _, _ = newDurableServer(t, m, snap, Config{})
	h := live.Handler()
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
	restarted, _, _ = newDurableServer(t, m.Clone(), snap, Config{})
	if restarted.inc.S.N() != live.inc.S.N() {
		t.Fatalf("restarted server holds %d observations, want %d", restarted.inc.S.N(), live.inc.S.N())
	}
	return live, restarted, snap
}

// TestIndexMatchesRebuild: after 200 live inserts, and again after the
// same inserts are replayed from the WAL onto a restarted server, the
// served index equals one rebuilt from the decoded checkpoint image.
func TestIndexMatchesRebuild(t *testing.T) {
	live, restarted, _ := grownServers(t)
	assertIndexMatchesRebuild(t, "after live inserts", live)
	assertIndexMatchesRebuild(t, "after WAL replay", restarted)
}

// batchEncode is the snapshot a batch run writes for sp: a fresh
// cubeMasking Result over it, sorted, encoded from its slices.
func batchEncode(t testing.TB, sp *core.Space) []byte {
	t.Helper()
	res := core.NewResult()
	if err := core.Compute(sp, core.AlgorithmCubeMasking, core.Options{}, res); err != nil {
		t.Fatal(err)
	}
	res.Sort()
	data, err := snapshot.New(sp, res, nil).Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestServedCheckpointIsBatchEncode: the image a server checkpoints, walked
// off its index, is byte for byte the batch encode of its space — before
// any insert, after 200 live inserts, and after the same inserts replayed
// from the WAL onto the pre-insert snapshot.
func TestServedCheckpointIsBatchEncode(t *testing.T) {
	live, restarted, snap := grownServers(t)
	fresh, err := New(decodeSnapshot(t, snap), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		srv  *Server
	}{{"before any insert", fresh}, {"after live inserts", live}, {"after WAL replay", restarted}} {
		got, err := c.srv.EncodeSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		if want := batchEncode(t, c.srv.inc.S); !bytes.Equal(got, want) {
			t.Errorf("%s: the served image (%d B) differs from the batch encode (%d B)", c.what, len(got), len(want))
		}
	}
}
