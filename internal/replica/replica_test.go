package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"rdfcube/internal/core"
	"rdfcube/internal/faultfs"
	"rdfcube/internal/gen"
	"rdfcube/internal/leakcheck"
	"rdfcube/internal/loadgen"
	"rdfcube/internal/qb"
	"rdfcube/internal/serve"
	"rdfcube/internal/snapshot"
	"rdfcube/internal/wal"
)

// primaryWorld is a WAL-backed primary for replica tests.
type primaryWorld struct {
	mem  *faultfs.MemFS
	srv  *serve.Server
	wlog *wal.Log
	ts   *httptest.Server
	n    int
}

func newPrimary(t *testing.T) *primaryWorld {
	t.Helper()
	return newPrimaryOver(t, gen.PaperExample())
}

// newPrimaryOver is newPrimary over the cubeMasking state of corpus.
func newPrimaryOver(t *testing.T, corpus *qb.Corpus) *primaryWorld {
	t.Helper()
	p := &primaryWorld{mem: faultfs.NewMemFS()}
	s, res, err := core.ComputeCorpusCtx(context.Background(), corpus, core.AlgorithmCubeMasking, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p.wlog, _, err = wal.Open(p.mem, "cube.wal")
	if err != nil {
		t.Fatal(err)
	}
	cfg := serve.Config{WAL: p.wlog, WALPollWait: 100 * time.Millisecond}
	p.srv, err = serve.New(snapshot.New(s, res, nil), cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.ts = httptest.NewServer(p.srv.Handler())
	t.Cleanup(func() {
		p.ts.Close()
		p.wlog.Close()
	})
	return p
}

// insert lands one observation on the primary and returns its URI.
func (p *primaryWorld) insert(t *testing.T) string {
	t.Helper()
	return p.insertInto(t, gen.ExNS+"dataset/D3")
}

// insertInto lands one observation into the given dataset. Every
// dataset in these tests shares D3's refArea/refPeriod/unemployment
// schema, so the body shape never varies.
func (p *primaryWorld) insertInto(t *testing.T, dataset string) string {
	t.Helper()
	p.n++
	uri := fmt.Sprintf("%sobs/repl-%d", gen.ExNS, p.n)
	body, _ := json.Marshal(map[string]any{
		"dataset": dataset,
		"uri":     uri,
		"dimensions": map[string]string{
			gen.DimRefArea.Value:   gen.GeoAthens.Value,
			gen.DimRefPeriod.Value: gen.TimeJan.Value,
		},
		"measures": map[string]string{gen.MeasUnemployment.Value: "0.42"},
	})
	resp, err := http.Post(p.ts.URL+"/v1/observations", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("insert %s: status %d", uri, resp.StatusCode)
	}
	return uri
}

// runFollower starts f.Run in a goroutine and returns a stopper that
// cancels it and waits for the exit-path checkpoint to finish.
func runFollower(t *testing.T, f *Follower) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = f.Run(ctx)
	}()
	stopped := false
	stop = func() {
		if stopped {
			return
		}
		stopped = true
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("follower Run did not exit")
		}
	}
	t.Cleanup(stop)
	return stop
}

// waitHas polls the follower's read API until uri answers 200.
func waitHas(t *testing.T, f *Follower, uri string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if srv := f.Server(); srv != nil {
			req := httptest.NewRequest("GET", "/v1/contains?obs="+uri, nil)
			rec := httptest.NewRecorder()
			f.Handler().ServeHTTP(rec, req)
			if rec.Code == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never served %s", uri)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFollowerResumesFromLocalChain is the restart contract: a follower
// that replicated, stopped, and restarted over the same local disk must
// resume tailing from its persisted position — no snapshot re-transfer —
// and still converge on records that landed while it was down.
func TestFollowerResumesFromLocalChain(t *testing.T) {
	p := newPrimary(t)
	uriBefore := p.insert(t)

	disk := faultfs.NewMemFS()
	cfg := Config{
		Primary:       p.ts.URL,
		FS:            disk,
		SnapshotPath:  "replica.bin",
		PollWait:      50 * time.Millisecond,
		ReconnectBase: 10 * time.Millisecond,
		ReconnectMax:  100 * time.Millisecond,
		Logf:          t.Logf,
	}
	f1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stop1 := runFollower(t, f1)
	waitHas(t, f1, uriBefore)
	if got := f1.Bootstraps(); got != 1 {
		t.Fatalf("first incarnation bootstrapped %d times, want 1", got)
	}
	uriWhileUp := p.insert(t)
	waitHas(t, f1, uriWhileUp)
	stop1() // graceful: checkpoints the local chain

	// Records landing while the follower is down must arrive via the WAL
	// tail after resume, not via a fresh snapshot.
	uriWhileDown := p.insert(t)

	f2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runFollower(t, f2)
	waitHas(t, f2, uriBefore)
	waitHas(t, f2, uriWhileUp)
	waitHas(t, f2, uriWhileDown)
	if got := f2.Bootstraps(); got != 0 {
		t.Fatalf("restart bootstrapped %d times; want 0 (resume from the local chain)", got)
	}
}

// TestFollowerQuarantinesCorruptLocalWAL: a follower whose local WAL
// header is garbage comes back with the file quarantined (bytes intact)
// and serves. The records that log held are gone from the chain, so the
// persisted position must not be trusted: the follower re-bootstraps and
// serves the insert only the lost log held, instead of tailing on past it.
func TestFollowerQuarantinesCorruptLocalWAL(t *testing.T) {
	p := newPrimary(t)
	uriBefore := p.insert(t)

	disk := faultfs.NewMemFS()
	cfg := Config{
		Primary:       p.ts.URL,
		FS:            disk,
		SnapshotPath:  "replica.bin",
		PollWait:      50 * time.Millisecond,
		ReconnectBase: 10 * time.Millisecond,
		ReconnectMax:  100 * time.Millisecond,
		Logf:          t.Logf,
	}
	f1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stop1 := runFollower(t, f1)
	waitHas(t, f1, uriBefore)
	uriInLog := p.insert(t)
	waitHas(t, f1, uriInLog)
	// Power cut while the insert lives only in the local WAL, then the
	// log's header is destroyed.
	crashed := disk.Clone()
	crashed.Crash()
	stop1()
	garbage := []byte("this is not a write-ahead log")
	if err := faultfs.WriteFileAtomic(crashed, "replica.bin.wal", garbage); err != nil {
		t.Fatal(err)
	}

	cfg.FS = crashed
	f2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runFollower(t, f2)
	waitHas(t, f2, uriBefore)
	waitHas(t, f2, uriInLog)
	if kept, err := crashed.ReadFile("replica.bin.wal.corrupt"); err != nil || !bytes.Equal(kept, garbage) {
		t.Fatalf("quarantined local wal holds %q (%v), want the garbage it replaced", kept, err)
	}
	if got := f2.Bootstraps(); got != 1 {
		t.Fatalf("restart bootstrapped %d times; want 1 (the position outlived its log)", got)
	}
}

// TestFollowerCheckpointIsBatchEncode: a follower that bootstrapped from
// a RealWorld state (n = 400) and then applied the primary's log of 200
// inserts holds, byte for byte, the image a batch run encodes for the same
// space — a sorted cubeMasking Result over the decoded space.
func TestFollowerCheckpointIsBatchEncode(t *testing.T) {
	corpus := gen.RealWorld(gen.RealWorldConfig{TotalObs: 400, Seed: 11})
	plan, err := loadgen.BuildPlan(loadgen.PlanConfig{Gen: "realworld", N: 400, Seed: 11, Mix: "ingest", Requests: 400}, corpus)
	if err != nil {
		t.Fatal(err)
	}
	n0 := 0
	for _, ds := range corpus.Datasets {
		n0 += len(ds.Observations)
	}
	p := newPrimaryOver(t, corpus)
	f, err := New(Config{
		Primary:       p.ts.URL,
		PollWait:      50 * time.Millisecond,
		ReconnectBase: 10 * time.Millisecond,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	runFollower(t, f)
	waitHas(t, f, "0")
	if got := f.Bootstraps(); got != 1 {
		t.Fatalf("%d bootstraps before the inserts, want 1", got)
	}

	const inserts = 200
	var last string
	for _, op := range plan.Ops {
		if op.Kind != loadgen.OpInsert || p.n == inserts {
			continue
		}
		resp, err := http.Post(p.ts.URL+op.Path, "application/json", bytes.NewReader(op.Body))
		if err != nil {
			t.Fatal(err)
		}
		var ack struct {
			URI string `json:"uri"`
		}
		err = json.NewDecoder(resp.Body).Decode(&ack)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated || err != nil {
			t.Fatalf("insert %d: status %d, %v", p.n, resp.StatusCode, err)
		}
		p.n++
		last = ack.URI
	}
	if p.n != inserts {
		t.Fatalf("plan held %d inserts, want %d", p.n, inserts)
	}
	waitHas(t, f, url.QueryEscape(last))
	if got := f.Bootstraps(); got != 1 {
		t.Fatalf("%d bootstraps, want 1: the inserts must arrive through the log", got)
	}

	got, err := f.Server().EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	sn, err := snapshot.Read(bytes.NewReader(got))
	if err != nil {
		t.Fatal(err)
	}
	if sn.Space.N() != n0+inserts {
		t.Fatalf("follower holds %d observations, want %d", sn.Space.N(), n0+inserts)
	}
	res := core.NewResult()
	if err := core.Compute(sn.Space, core.AlgorithmCubeMasking, core.Options{}, res); err != nil {
		t.Fatal(err)
	}
	res.Sort()
	want, err := snapshot.New(sn.Space, res, nil).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the follower's image (%d B) differs from the batch encode of its space (%d B)", len(got), len(want))
	}
}

// TestFollowerLocalCheckpointBoundsChain: with a tiny CheckpointBytes
// the local WAL must be repeatedly truncated into snapshot generations,
// and a restart over the checkpointed chain still resumes cleanly.
func TestFollowerLocalCheckpointBoundsChain(t *testing.T) {
	p := newPrimary(t)

	disk := faultfs.NewMemFS()
	cfg := Config{
		Primary:         p.ts.URL,
		FS:              disk,
		SnapshotPath:    "replica.bin",
		CheckpointBytes: 1, // every applied batch triggers a local checkpoint
		PollWait:        50 * time.Millisecond,
		ReconnectBase:   10 * time.Millisecond,
		Logf:            t.Logf,
	}
	f1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stop1 := runFollower(t, f1)
	var last string
	for i := 0; i < 5; i++ {
		last = p.insert(t)
	}
	waitHas(t, f1, last)
	stop1()

	// The local WAL was truncated by checkpoints: it must hold far less
	// than the full record stream.
	w, recs, err := wal.Open(disk, "replica.bin.wal")
	if err != nil {
		t.Fatalf("inspecting local wal: %v", err)
	}
	w.Close()
	if len(recs) >= 5 {
		t.Fatalf("local wal still holds %d records; checkpoints never truncated it", len(recs))
	}

	uriAfter := p.insert(t)
	f2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runFollower(t, f2)
	waitHas(t, f2, last)
	waitHas(t, f2, uriAfter)
	if got := f2.Bootstraps(); got != 0 {
		t.Fatalf("restart over a checkpointed chain bootstrapped %d times, want 0", got)
	}
}

// registerDataset registers a new dataset on the primary (D3's schema)
// and returns its URI. The registration is one WAL record, which the
// followers apply like an insert.
func (p *primaryWorld) registerDataset(t *testing.T, name string) string {
	t.Helper()
	uri := gen.ExNS + "dataset/" + name
	body, _ := json.Marshal(map[string]any{
		"uri":        uri,
		"dimensions": []string{gen.DimRefArea.Value, gen.DimRefPeriod.Value},
		"measures":   []string{gen.MeasUnemployment.Value},
	})
	resp, err := http.Post(p.ts.URL+"/v1/datasets", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register %s: status %d", uri, resp.StatusCode)
	}
	return uri
}

// TestFollowerLiveAcrossRegistration: a live, caught-up follower tails a
// dataset registration on its primary like any insert — the registration
// record creates the dataset, so the next insert into it finds its
// dataset index — and never bootstraps again.
func TestFollowerLiveAcrossRegistration(t *testing.T) {
	p := newPrimary(t)
	uriBefore := p.insert(t)
	f, err := New(Config{
		Primary:       p.ts.URL,
		PollWait:      50 * time.Millisecond,
		ReconnectBase: 10 * time.Millisecond,
		ReconnectMax:  100 * time.Millisecond,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	runFollower(t, f)
	waitHas(t, f, uriBefore)
	boots := f.Bootstraps()

	dsNew := p.registerDataset(t, "Dlive")
	uriNew := p.insertInto(t, dsNew)
	uriAfter := p.insert(t)
	waitHas(t, f, uriNew)
	waitHas(t, f, uriAfter)
	if got := f.Bootstraps(); got != boots {
		t.Fatalf("live follower across a registration bootstrapped %d times, want %d (no re-bootstrap)", got, boots)
	}
}

// TestFollowerResumesAcrossRegistrationWhileDown: a follower that was
// down across a dataset registration resumes from its local chain — the
// registration is a WAL record, not a checkpoint that truncates the log
// past the follower's offset — and serves the records it missed, the
// observation in the brand-new dataset, and everything it already had,
// without a single bootstrap.
func TestFollowerResumesAcrossRegistrationWhileDown(t *testing.T) {
	p := newPrimary(t)
	uriBefore := p.insert(t)

	disk := faultfs.NewMemFS()
	cfg := Config{
		Primary:       p.ts.URL,
		FS:            disk,
		SnapshotPath:  "replica.bin",
		PollWait:      50 * time.Millisecond,
		ReconnectBase: 10 * time.Millisecond,
		ReconnectMax:  100 * time.Millisecond,
		Logf:          t.Logf,
	}
	f1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stop1 := runFollower(t, f1)
	waitHas(t, f1, uriBefore)
	stop1() // graceful: the local chain now ends mid-stream

	// While the follower is down: a record it will miss, a dataset
	// registration, then a record into the new dataset.
	uriMissed := p.insert(t)
	dsNew := p.registerDataset(t, "Dnew")
	uriNew := p.insertInto(t, dsNew)

	f2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runFollower(t, f2)
	waitHas(t, f2, uriBefore)
	waitHas(t, f2, uriMissed)
	waitHas(t, f2, uriNew)
	if got := f2.Bootstraps(); got != 0 {
		t.Fatalf("follower across a registration bootstrapped %d times, want 0 (resume from the local chain)", got)
	}
}

// TestFollowerWithoutPersistenceBootstrapsEveryStart: no SnapshotPath
// means no local chain — every incarnation pulls a fresh snapshot.
func TestFollowerWithoutPersistenceBootstrapsEveryStart(t *testing.T) {
	p := newPrimary(t)
	uri := p.insert(t)
	cfg := Config{
		Primary:       p.ts.URL,
		PollWait:      50 * time.Millisecond,
		ReconnectBase: 10 * time.Millisecond,
		Logf:          t.Logf,
	}
	for i := 0; i < 2; i++ {
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		stop := runFollower(t, f)
		waitHas(t, f, uri)
		if got := f.Bootstraps(); got != 1 {
			t.Fatalf("incarnation %d: %d bootstraps, want 1", i, got)
		}
		stop()
	}
}

// TestSilentPrimaryDoesNotHangFollower is the regression test for the
// untimed replication client: a primary whose listener accepts the TCP
// connection but never sends a byte (a wedged process behind a live
// listener, a half-open link) must bound the attempt via the
// transport's response-header timeout and keep reconnecting — not hang
// the replication goroutine forever.
func TestSilentPrimaryDoesNotHangFollower(t *testing.T) {
	leakcheck.Check(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	defer close(done)
	go func() {
		var conns []net.Conn
		defer func() {
			for _, c := range conns {
				c.Close()
			}
		}()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			conns = append(conns, c) // accept, never respond
			select {
			case <-done:
				return
			default:
			}
		}
	}()

	logs := make(chan string, 64)
	f, err := New(Config{
		Primary:       "http://" + ln.Addr().String(),
		HeaderTimeout: 150 * time.Millisecond,
		ReconnectBase: 10 * time.Millisecond,
		Logf: func(format string, a ...any) {
			select {
			case logs <- fmt.Sprintf(format, a...):
			default:
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- f.Run(ctx) }()

	// The attempt must fail and trigger a reconnect within a couple of
	// header timeouts — a bare http.Client{} here blocks forever.
	deadline := time.After(5 * time.Second)
	for {
		select {
		case line := <-logs:
			if strings.Contains(line, "reconnecting in") {
				goto reconnected
			}
		case <-deadline:
			t.Fatal("follower never gave up on the silent primary (no reconnect within 5s)")
		}
	}
reconnected:
	cancel()
	select {
	case <-runDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
}

// TestDefaultClientTimeouts pins the transport shape of the default
// replication client.
func TestDefaultClientTimeouts(t *testing.T) {
	tr, ok := defaultClient(5*time.Second, 0).Transport.(*http.Transport)
	if !ok {
		t.Fatal("default client has no *http.Transport")
	}
	if tr.ResponseHeaderTimeout != 45*time.Second {
		t.Fatalf("default header timeout: %v", tr.ResponseHeaderTimeout)
	}
	if tr.TLSHandshakeTimeout != 10*time.Second {
		t.Fatalf("TLS handshake timeout: %v", tr.TLSHandshakeTimeout)
	}
	if tr.DialContext == nil {
		t.Fatal("no dial timeout configured")
	}

	// A poll budget near the header timeout pushes the default up: the
	// primary may legitimately sit on a tail request for PollWait before
	// answering, and that silence must not be mistaken for a dead peer.
	tr = defaultClient(40*time.Second, 0).Transport.(*http.Transport)
	if tr.ResponseHeaderTimeout != 55*time.Second {
		t.Fatalf("header timeout under a 40s poll budget: %v", tr.ResponseHeaderTimeout)
	}

	// An explicit HeaderTimeout wins.
	tr = defaultClient(5*time.Second, 200*time.Millisecond).Transport.(*http.Transport)
	if tr.ResponseHeaderTimeout != 200*time.Millisecond {
		t.Fatalf("explicit header timeout: %v", tr.ResponseHeaderTimeout)
	}
}

// TestFollowerWALWithoutSnapshotIsRefused: a local WAL without a snapshot
// chain is a configuration error — nothing would ever read or truncate the
// log the follower appends every batch to.
func TestFollowerWALWithoutSnapshotIsRefused(t *testing.T) {
	if _, err := New(Config{Primary: "http://primary.invalid", WALPath: "replica.wal"}); err == nil {
		t.Fatal("New accepted WALPath without SnapshotPath")
	}
	if _, err := New(Config{Primary: "http://primary.invalid", WALPath: "replica.wal", SnapshotPath: "replica.bin"}); err != nil {
		t.Fatalf("New refused WALPath with SnapshotPath: %v", err)
	}
}

// TestFollowerPromotesToPrimary is the failover runbook's promotion: a
// follower stopped gracefully leaves a chain that serve.Open boots as a
// primary — the same function, the same files. The promoted node serves
// everything the follower held (a registered dataset included), accepts
// an insert, and a fresh follower bootstraps from it.
func TestFollowerPromotesToPrimary(t *testing.T) {
	leakcheck.Check(t)
	p := newPrimary(t)
	uris := []string{p.insert(t)}
	disk := faultfs.NewMemFS()
	f, err := New(Config{
		Primary:       p.ts.URL,
		FS:            disk,
		SnapshotPath:  "replica.bin",
		PollWait:      50 * time.Millisecond,
		ReconnectBase: 10 * time.Millisecond,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := runFollower(t, f)
	waitHas(t, f, uris[0])
	uris = append(uris, p.insertInto(t, p.registerDataset(t, "Dpromoted")), p.insert(t))
	for _, uri := range uris {
		waitHas(t, f, uri)
	}
	stop()

	rot := snapshot.NewRotator(disk, "replica.bin")
	srv, rec, err := serve.Open(rot, "replica.bin.wal", serve.Config{WALPollWait: 100 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatalf("booting the follower's chain as a primary: %v", err)
	}
	if rec.Snapshot == "" || rec.QuarantinedWAL != "" {
		t.Fatalf("promotion recovery %+v: want a loaded generation and no quarantine", rec)
	}
	promoted := &primaryWorld{mem: disk, srv: srv, wlog: srv.WAL(), ts: httptest.NewServer(srv.Handler()), n: 100}
	t.Cleanup(func() {
		promoted.ts.Close()
		promoted.wlog.Close()
	})
	for _, uri := range uris {
		resp, err := http.Get(promoted.ts.URL + "/v1/contains?obs=" + url.QueryEscape(uri))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("promoted primary answers %d for %s, which its follower served", resp.StatusCode, uri)
		}
	}
	uris = append(uris, promoted.insert(t))

	f2, err := New(Config{
		Primary:       promoted.ts.URL,
		PollWait:      50 * time.Millisecond,
		ReconnectBase: 10 * time.Millisecond,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	runFollower(t, f2)
	for _, uri := range uris {
		waitHas(t, f2, url.QueryEscape(uri))
	}
	if got := f2.Bootstraps(); got != 1 {
		t.Fatalf("follower of the promoted primary bootstrapped %d times, want 1", got)
	}
}
