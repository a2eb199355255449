package serve

import (
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"strconv"
	"testing"
	"time"

	"rdfcube/internal/faultfs"
	"rdfcube/internal/wal"
)

// tailRaw issues one GET /v1/wal and returns the response with its body.
func tailRaw(t *testing.T, base string, from int64, stream string, extra string) (*http.Response, []byte) {
	t.Helper()
	url := fmt.Sprintf("%s/v1/wal?from=%d", base, from)
	if stream != "" {
		url += "&stream=" + stream
	}
	url += extra
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	return resp, body
}

func header64(t *testing.T, resp *http.Response, name string) int64 {
	t.Helper()
	v, err := strconv.ParseInt(resp.Header.Get(name), 10, 64)
	if err != nil {
		t.Fatalf("header %s = %q: %v", name, resp.Header.Get(name), err)
	}
	return v
}

// TestSnapshotEndpointRoundTrip: GET /v1/snapshot must return a
// decodable image whose CRC header matches the body, plus the stream and
// position to tail from — and the position must equal the primary's
// durable WAL end.
func TestSnapshotEndpointRoundTrip(t *testing.T) {
	m := faultfs.NewMemFS()
	_, ts, _ := newDurableServer(t, m, paperSnapshotBytes(t), Config{
		SnapshotGen: func() uint64 { return 42 },
	})

	var created map[string]any
	if code := postJSON(t, ts.URL+"/v1/observations", insertBody("-boot"), &created); code != http.StatusCreated {
		t.Fatalf("insert: status %d", code)
	}

	resp, body := func() (*http.Response, []byte) {
		resp, err := http.Get(ts.URL + "/v1/snapshot")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, data
	}()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: status %d", resp.StatusCode)
	}
	if got, want := fmt.Sprintf("%08x", crc32.ChecksumIEEE(body)), resp.Header.Get(SnapshotCRCHeader); got != want {
		t.Fatalf("snapshot CRC: body %s, header %s", got, want)
	}
	if gen := resp.Header.Get(SnapshotGenHeader); gen != "42" {
		t.Fatalf("generation header %q, want 42", gen)
	}
	sn := decodeSnapshot(t, body)
	if sn.Space.N() != 11 { // 10 paper observations + 1 live insert
		t.Fatalf("snapshot holds %d observations, want 11", sn.Space.N())
	}
	stream := resp.Header.Get(WALStreamHeader)
	if stream == "" {
		t.Fatal("snapshot response lacks the WAL stream header")
	}
	pos := header64(t, resp, WALPositionHeader)

	// The position is the durable end: tailing from it with wait=0 long-
	// polls out empty (nothing newer exists).
	tresp, tbody := tailRaw(t, ts.URL, pos, stream, "&wait=1ms")
	if tresp.StatusCode != http.StatusOK || len(tbody) != 0 {
		t.Fatalf("tail at snapshot position: status %d, %d bytes; want empty 200", tresp.StatusCode, len(tbody))
	}
}

// TestWALTailServesInsertedRecords: records appended after a tail
// position are returned as valid frames with advancing position headers.
func TestWALTailServesInsertedRecords(t *testing.T) {
	m := faultfs.NewMemFS()
	_, ts, _ := newDurableServer(t, m, paperSnapshotBytes(t), Config{})

	resp, body := tailRaw(t, ts.URL, 0, "", "&wait=1ms")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("initial tail: status %d", resp.StatusCode)
	}
	if len(body) != 0 {
		t.Fatalf("empty WAL served %d bytes", len(body))
	}
	stream := resp.Header.Get(WALStreamHeader)

	for i := 0; i < 3; i++ {
		var created map[string]any
		if code := postJSON(t, ts.URL+"/v1/observations", insertBody(fmt.Sprintf("-t%d", i)), &created); code != http.StatusCreated {
			t.Fatalf("insert %d: status %d", i, code)
		}
	}
	resp, body = tailRaw(t, ts.URL, 0, stream, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tail after inserts: status %d", resp.StatusCode)
	}
	recs, good, err := wal.ParseFrames(body)
	if err != nil {
		t.Fatalf("served frames do not parse: %v", err)
	}
	if len(recs) != 3 || good != int64(len(body)) {
		t.Fatalf("tail served %d records over %d/%d bytes, want 3 complete", len(recs), good, len(body))
	}
	if next := header64(t, resp, WALNextHeader); next != good {
		t.Fatalf("next header %d, want %d", next, good)
	}
	if end := header64(t, resp, WALEndHeader); end != good {
		t.Fatalf("end header %d, want %d", end, good)
	}
	if seq := header64(t, resp, WALSeqHeader); seq != 3 {
		t.Fatalf("seq header %d, want 3", seq)
	}
}

// TestWALTailEdgeCases covers the protocol's refusals: offset past the
// end (400), offset mid-record (400), stream mismatch (410), missing
// WAL (503).
func TestWALTailEdgeCases(t *testing.T) {
	m := faultfs.NewMemFS()
	_, ts, _ := newDurableServer(t, m, paperSnapshotBytes(t), Config{})
	var created map[string]any
	if code := postJSON(t, ts.URL+"/v1/observations", insertBody("-edge"), &created); code != http.StatusCreated {
		t.Fatalf("insert: status %d", code)
	}
	resp, body := tailRaw(t, ts.URL, 0, "", "")
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("baseline tail: status %d, %d bytes", resp.StatusCode, len(body))
	}
	stream := resp.Header.Get(WALStreamHeader)
	end := header64(t, resp, WALEndHeader)

	// Past the durable end: the client computed a bogus offset.
	if resp, _ := tailRaw(t, ts.URL, end+100, stream, ""); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("offset past end: status %d, want 400", resp.StatusCode)
	}
	// Mid-record: inside the first frame.
	if resp, _ := tailRaw(t, ts.URL, 1, stream, ""); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mid-record offset: status %d, want 400", resp.StatusCode)
	}
	// Negative offset.
	if resp, _ := tailRaw(t, ts.URL, -1, stream, ""); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative offset: status %d, want 400", resp.StatusCode)
	}
	// Wrong stream: the follower tailed a previous incarnation; it must
	// re-bootstrap, and the answer names the current stream.
	resp, _ = tailRaw(t, ts.URL, 0, "deadbeefdeadbeef", "")
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("stream mismatch: status %d, want 410", resp.StatusCode)
	}
	if got := resp.Header.Get(WALStreamHeader); got != stream {
		t.Fatalf("410 names stream %q, want current %q", got, stream)
	}

	// A server with no WAL cannot replicate.
	_, noWAL := newPaperServer(t, Config{})
	if resp, _ := tailRaw(t, noWAL.URL, 0, "", ""); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("no-WAL tail: status %d, want 503", resp.StatusCode)
	}
}

// TestWALTailLongPollWakesOnInsert: a tail at the durable end parks
// until an insert lands, then returns the new record — the follower
// never busy-polls.
func TestWALTailLongPollWakesOnInsert(t *testing.T) {
	m := faultfs.NewMemFS()
	_, ts, _ := newDurableServer(t, m, paperSnapshotBytes(t), Config{})

	type tailResult struct {
		status int
		nrecs  int
		err    error
	}
	done := make(chan tailResult, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/wal?from=0&wait=10s")
		if err != nil {
			done <- tailResult{err: err}
			return
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			done <- tailResult{err: err}
			return
		}
		recs, _, perr := wal.ParseFrames(data)
		if perr != nil {
			done <- tailResult{err: perr}
			return
		}
		done <- tailResult{status: resp.StatusCode, nrecs: len(recs)}
	}()

	// Give the poller time to park, then wake it with an insert.
	time.Sleep(50 * time.Millisecond)
	select {
	case r := <-done:
		t.Fatalf("long-poll returned before any insert: %+v", r)
	default:
	}
	var created map[string]any
	if code := postJSON(t, ts.URL+"/v1/observations", insertBody("-wake"), &created); code != http.StatusCreated {
		t.Fatalf("insert: status %d", code)
	}
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("long-poll: %v", r.err)
		}
		if r.status != http.StatusOK || r.nrecs != 1 {
			t.Fatalf("long-poll woke with status %d, %d records; want 200 with 1", r.status, r.nrecs)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll never woke after the insert")
	}
}

// TestWALTailReleasedByShutdown: BeginShutdown answers a tail parked at
// the durable end at once — an empty 200 that resumes from the same
// offset — so http.Server.Shutdown does not wait out the poll budget.
func TestWALTailReleasedByShutdown(t *testing.T) {
	srv, ts, _ := newDurableServer(t, faultfs.NewMemFS(), paperSnapshotBytes(t), Config{})
	done := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/wal?from=0&wait=10s")
		if err == nil {
			resp.Body.Close()
		}
		done <- resp
	}()
	time.Sleep(50 * time.Millisecond) // let the poller park
	srv.BeginShutdown()
	select {
	case resp := <-done:
		if resp == nil {
			t.Fatal("parked tail failed in transport")
		}
		if resp.StatusCode != http.StatusOK || header64(t, resp, WALNextHeader) != 0 {
			t.Fatalf("released tail: status %d, next %q; want 200 resuming at 0", resp.StatusCode, resp.Header.Get(WALNextHeader))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("BeginShutdown did not release the parked tail")
	}
}

// TestWALTailOffsetsSurviveCheckpoint: a checkpoint truncates the
// physical WAL, but logical offsets keep advancing — a caught-up
// follower's position stays valid (empty 200 at the end), while a
// position from before the truncation gets 410 and re-bootstraps.
func TestWALTailOffsetsSurviveCheckpoint(t *testing.T) {
	m := faultfs.NewMemFS()
	srv, ts, wlog := newDurableServer(t, m, paperSnapshotBytes(t), Config{})

	var created map[string]any
	if code := postJSON(t, ts.URL+"/v1/observations", insertBody("-ck1"), &created); code != http.StatusCreated {
		t.Fatalf("insert: status %d", code)
	}
	resp, body := tailRaw(t, ts.URL, 0, "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-checkpoint tail: %d", resp.StatusCode)
	}
	stream := resp.Header.Get(WALStreamHeader)
	caughtUp := header64(t, resp, WALNextHeader)
	if caughtUp == 0 || len(body) == 0 {
		t.Fatal("tail returned nothing before the checkpoint")
	}

	var sink []byte
	if err := srv.CheckpointWith(func(data []byte) error { sink = data; return nil }); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if len(sink) == 0 {
		t.Fatal("checkpoint wrote nothing")
	}
	if wlog.RecordBytes() != 0 {
		t.Fatalf("checkpoint left %d record bytes in the WAL", wlog.RecordBytes())
	}

	// The caught-up position is still valid after truncation.
	resp, body = tailRaw(t, ts.URL, caughtUp, stream, "&wait=1ms")
	if resp.StatusCode != http.StatusOK || len(body) != 0 {
		t.Fatalf("caught-up tail after checkpoint: status %d, %d bytes; want empty 200", resp.StatusCode, len(body))
	}
	// A position the truncation discarded is gone for good.
	if resp, _ := tailRaw(t, ts.URL, 0, stream, ""); resp.StatusCode != http.StatusGone {
		t.Fatalf("pre-truncation offset: status %d, want 410", resp.StatusCode)
	}

	// New inserts extend the logical stream past the checkpoint; the
	// caught-up follower reads exactly them.
	if code := postJSON(t, ts.URL+"/v1/observations", insertBody("-ck2"), &created); code != http.StatusCreated {
		t.Fatalf("insert: status %d", code)
	}
	resp, body = tailRaw(t, ts.URL, caughtUp, stream, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-checkpoint tail: %d", resp.StatusCode)
	}
	recs, _, err := wal.ParseFrames(body)
	if err != nil || len(recs) != 1 {
		t.Fatalf("post-checkpoint tail: %d records, err %v; want exactly the new record", len(recs), err)
	}
}

// TestFollowerRejectsWrites: a server wearing a FollowerState refuses
// inserts with 503 plus the Leader redirect hint, while reads keep
// working.
func TestFollowerRejectsWrites(t *testing.T) {
	fs := &FollowerState{Leader: "http://leader.example:8080"}
	fs.MarkCaughtUp()
	_, ts := newPaperServer(t, Config{Follower: fs})

	resp, err := http.Post(ts.URL+"/v1/observations", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("follower insert: status %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get(LeaderHeader); got != fs.Leader {
		t.Fatalf("Leader header %q, want %q", got, fs.Leader)
	}

	var rel map[string]any
	if code := getJSON(t, ts.URL+"/v1/related?obs=0", &rel); code != http.StatusOK {
		t.Fatalf("follower read: status %d", code)
	}
}

// TestFollowerReadyzStaleness: readiness follows the staleness bound —
// ready while fresh, 503/stale once MaxStaleness passes without a
// catch-up, ready again after the next catch-up.
func TestFollowerReadyzStaleness(t *testing.T) {
	fs := &FollowerState{Leader: "http://leader.example", MaxStaleness: 50 * time.Millisecond}
	fs.MarkCaughtUp()
	_, ts := newPaperServer(t, Config{Follower: fs})

	var ready struct {
		Status string `json:"status"`
		Role   string `json:"role"`
	}
	if code := getJSON(t, ts.URL+"/readyz", &ready); code != http.StatusOK {
		t.Fatalf("fresh follower readyz: status %d (%+v)", code, ready)
	}
	if ready.Role != "follower" {
		t.Fatalf("readyz role %q, want follower", ready.Role)
	}

	time.Sleep(80 * time.Millisecond)
	if code := getJSON(t, ts.URL+"/readyz", &ready); code != http.StatusServiceUnavailable || ready.Status != "stale" {
		t.Fatalf("stale follower readyz: status %d state %q, want 503 stale", code, ready.Status)
	}

	fs.MarkCaughtUp()
	if code := getJSON(t, ts.URL+"/readyz", &ready); code != http.StatusOK {
		t.Fatalf("re-caught-up readyz: status %d", code)
	}
}

// TestStatsReportsWALAndGeneration (satellite): /v1/stats must expose
// the WAL size, logical stream coordinates, and snapshot generation.
func TestStatsReportsWALAndGeneration(t *testing.T) {
	m := faultfs.NewMemFS()
	_, ts, wlog := newDurableServer(t, m, paperSnapshotBytes(t), Config{
		SnapshotGen: func() uint64 { return 7 },
	})
	var created map[string]any
	if code := postJSON(t, ts.URL+"/v1/observations", insertBody("-stats"), &created); code != http.StatusCreated {
		t.Fatalf("insert: status %d", code)
	}

	var stats struct {
		WALBytes   int64  `json:"walBytes"`
		WALStream  string `json:"walStream"`
		WALStart   int64  `json:"walStart"`
		WALEnd     int64  `json:"walEnd"`
		WALSeq     int64  `json:"walSeq"`
		Generation uint64 `json:"snapshotGeneration"`
		Role       string `json:"role"`
	}
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if stats.WALBytes != wlog.Size() {
		t.Fatalf("stats walBytes %d, want %d", stats.WALBytes, wlog.Size())
	}
	if stats.WALStream == "" || stats.WALStart != 0 || stats.WALEnd != wlog.RecordBytes() || stats.WALSeq != 1 {
		t.Fatalf("stats stream coordinates wrong: %+v (record bytes %d)", stats, wlog.RecordBytes())
	}
	if stats.Generation != 7 {
		t.Fatalf("stats snapshotGeneration %d, want 7", stats.Generation)
	}
	if stats.Role != "primary" {
		t.Fatalf("stats role %q, want primary", stats.Role)
	}
}
