package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	rdfcube "rdfcube"
	"rdfcube/internal/core"
	"rdfcube/internal/faultfs"
	"rdfcube/internal/gen"
	"rdfcube/internal/snapshot"
)

// syncBuffer is a goroutine-safe bytes.Buffer: the daemon goroutine
// writes log lines while the test polls String.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestOnceBuildsSnapshotAndCheckPasses drives the batch path: -gen
// example -once writes a snapshot, -check verifies it, and a second
// -once run loads it instead of computing again.
func TestOnceBuildsSnapshotAndCheckPasses(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "idx.bin")

	var out, errOut bytes.Buffer
	if code := run(context.Background(), []string{"-gen", "example", "-snapshot", snap, "-once"}, &out, &errOut); code != 0 {
		t.Fatalf("build: exit %d\nstderr: %s", code, errOut.String())
	}
	// Rotation artifacts: the first generation plus the CURRENT pointer.
	if _, err := os.Stat(snap + ".000001"); err != nil {
		t.Fatalf("snapshot generation not written: %v", err)
	}
	if cur, err := os.ReadFile(snap + ".CURRENT"); err != nil || strings.TrimSpace(string(cur)) != "idx.bin.000001" {
		t.Fatalf("CURRENT pointer: %q, %v", cur, err)
	}
	if !strings.Contains(out.String(), "snapshot ready") {
		t.Fatalf("unexpected stdout: %q", out.String())
	}

	out.Reset()
	errOut.Reset()
	if code := run(context.Background(), []string{"-snapshot", snap, "-check"}, &out, &errOut); code != 0 {
		t.Fatalf("check: exit %d\nstderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "ok:") {
		t.Fatalf("check stdout: %q", out.String())
	}

	// A second -once run must load, not recompute.
	out.Reset()
	errOut.Reset()
	if code := run(context.Background(), []string{"-snapshot", snap, "-once"}, &out, &errOut); code != 0 {
		t.Fatalf("reload: exit %d\nstderr: %s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "loaded snapshot") {
		t.Fatalf("expected snapshot load on second run, stderr: %q", errOut.String())
	}
}

// patchFirstPartial replaces, in the snapshot file at path, the first S_P
// pair with a pair of distinct observations whose derived degree is 0 or 1
// — not a partial pair — and rebuilds the RSLT frame's length and CRC: the
// patchSection approach of snapshot's corrupt_test.go, damage that framing
// and checksum vouch for, so only the decoder's own validation sees it. It
// returns the pair.
func patchFirstPartial(t *testing.T, path string) (a, b int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sn, err := snapshot.Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	a, b = -1, -1
	for i := 0; i < sn.Space.N() && a < 0; i++ {
		for j := 0; j < sn.Space.N(); j++ {
			if deg := sn.Space.Degree(i, j); i != j && (deg == 0 || deg == 1) {
				a, b = i, j
				break
			}
		}
	}
	if a < 0 {
		t.Fatal("no pair of degree 0 or 1")
	}
	for off := 12; off+8 <= len(data); { // sections: tag, length, payload, CRC
		n := int(binary.LittleEndian.Uint32(data[off+4:]))
		payload := data[off+8 : off+8+n]
		if string(data[off:off+4]) != "RSLT" {
			off += 8 + n + 4
			continue
		}
		at := 0
		uvarint := func() uint64 {
			v, k := binary.Uvarint(payload[at:])
			if k <= 0 {
				t.Fatalf("RSLT payload does not parse at offset %d", at)
			}
			at += k
			return v
		}
		for nFull := uvarint(); nFull > 0; nFull-- {
			uvarint()
			uvarint()
		}
		if uvarint() == 0 {
			t.Fatal("degenerate fixture: no partial pairs")
		}
		start := at
		uvarint()
		uvarint()
		patched := binary.AppendUvarint(bytes.Clone(payload[:start]), uint64(a))
		patched = append(binary.AppendUvarint(patched, uint64(b)), payload[at:]...)
		out := binary.LittleEndian.AppendUint32(bytes.Clone(data[:off+4]), uint32(len(patched)))
		out = binary.LittleEndian.AppendUint32(append(out, patched...), crc32.ChecksumIEEE(patched))
		if err := os.WriteFile(path, append(out, data[off+8+n+4:]...), 0o644); err != nil {
			t.Fatal(err)
		}
		return a, b
	}
	t.Fatal("no RSLT section")
	return 0, 0
}

// TestCheckComparesDegrees: a snapshot whose S_P lists a pair the space
// cannot hold as partial — its derived degree is 0 or 1 — under a valid
// CRC fails -check, naming the pair. The check is the decoder's, made on
// every load from the degree it derives, so -check needs no loop of its
// own.
func TestCheckComparesDegrees(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "idx.bin")
	var out, errOut bytes.Buffer
	if code := run(context.Background(), []string{"-gen", "example", "-snapshot", snap, "-once"}, &out, &errOut); code != 0 {
		t.Fatalf("build: exit %d\nstderr: %s", code, errOut.String())
	}
	a, b := patchFirstPartial(t, snap+".000001")
	errOut.Reset()
	if code := run(context.Background(), []string{"-snapshot", snap, "-check"}, &out, &errOut); code != 1 {
		t.Fatalf("check of a pair that is not partial: exit %d, want 1\nstderr: %s", code, errOut.String())
	}
	if want := fmt.Sprintf("partial pair (%d, %d) derives degree", a, b); !strings.Contains(errOut.String(), want) {
		t.Fatalf("stderr does not name the pair (%q): %s", want, errOut.String())
	}
}

// TestCheckRejectsLossySnapshot: -check recomputes with the exact kernel,
// not with whatever wrote the file, so a state that is self-consistent
// but lossy fails it. Clustering (§3.2) on RealWorld n = 1 500, seed 4
// misses 2 434 of 546 972 partial pairs.
func TestCheckRejectsLossySnapshot(t *testing.T) {
	corpus := gen.RealWorld(gen.RealWorldConfig{TotalObs: 1500, Seed: 4})
	s, res, err := core.ComputeCorpusCtx(context.Background(), corpus, core.AlgorithmClustering, core.Options{Tasks: core.TaskAll})
	if err != nil {
		t.Fatal(err)
	}
	data, err := snapshot.New(s, res, core.BuildLattice(s)).Encode()
	if err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(t.TempDir(), "lossy.bin")
	if err := snapshot.NewRotator(faultfs.OS{}, snap).Write(data); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := run(context.Background(), []string{"-snapshot", snap, "-check"}, &out, &errOut); code != 1 {
		t.Fatalf("check of a clustering snapshot: exit %d, want 1\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	if !strings.Contains(errOut.String(), "partial containment differs") {
		t.Fatalf("stderr does not name partial containment: %s", errOut.String())
	}
	t.Logf("%s", strings.TrimSpace(errOut.String()))
}

// TestTerminationDuringStartupBuild: a termination signal that arrives
// before or during the startup build exits 130 and writes nothing — no
// generation file, no CURRENT pointer. The parent context stands in for
// SIGTERM.
func TestTerminationDuringStartupBuild(t *testing.T) {
	for _, when := range []time.Duration{0, 10 * time.Millisecond} {
		dir := t.TempDir()
		ctx, cancel := context.WithCancel(context.Background())
		if when == 0 {
			cancel()
		} else {
			time.AfterFunc(when, cancel)
		}
		var out, errOut bytes.Buffer
		code := run(ctx, []string{"-gen", "real", "-n", "1500", "-snapshot", filepath.Join(dir, "idx.bin"), "-once"}, &out, &errOut)
		cancel()
		if code != 130 {
			t.Fatalf("canceled after %v: exit %d, want 130\nstderr: %s", when, code, errOut.String())
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 0 {
			t.Fatalf("canceled after %v: the snapshot directory holds %v, want nothing", when, entries)
		}
	}
}

// TestBadFlags pins the usage-error exits.
func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-definitely-not-a-flag"},
		{"-once"},                                  // no corpus and no snapshot
		{"-load", "a.ttl", "-gen", "example"},      // mutually exclusive
		{"-check"},                                 // -check without -snapshot
		{"-gen", "nope", "-once"},                  // unknown generator
		{"-load", "/does/not/exist.ttl", "-once"},  // missing file
		{"-snapshot", "/does/not/exist", "-check"}, // missing snapshot
		{"-tasks", "bogus", "-gen", "example"},     // unknown task
		{"-tasks", ",", "-gen", "example"},         // empty task list
		{"-alg", "clustering", "-gen", "example"},  // no kernel choice: the build is cubeMasking
	} {
		var out, errOut bytes.Buffer
		if code := run(context.Background(), args, &out, &errOut); code == 0 {
			t.Errorf("args %v: expected non-zero exit", args)
		}
	}
}

// TestServeEndToEnd boots the daemon on an ephemeral port, queries it,
// inserts an observation, cancels the context (the SIGTERM stand-in) and
// verifies a clean exit plus a reloadable shutdown checkpoint that
// includes the insert.
func TestServeEndToEnd(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "idx.bin")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var out, errOut syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{"-gen", "example", "-snapshot", snap, "-addr", "127.0.0.1:0", "-checkpoint", "0"}, &out, &errOut)
	}()

	base := waitForAddr(t, &errOut, done)

	// Readiness and a relationship query.
	waitForOK(t, base+"/readyz")
	resp, err := http.Get(base + "/v1/related?obs=0")
	if err != nil {
		t.Fatalf("related: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("related: status %d", resp.StatusCode)
	}

	// The PR-1 observability surface shares the address.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}

	// Live insert.
	body := `{"dataset":"http://example.org/dataset/D3","uri":"http://example.org/obs/live1",` +
		`"dimensions":{"http://example.org/dim/refArea":"http://example.org/code/area/Rome",` +
		`"http://example.org/dim/refPeriod":"http://example.org/code/time/Feb2011"},` +
		`"measures":{"http://example.org/measure/unemployment":"0.07"}}`
	resp, err = http.Post(base+"/v1/observations", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	var created struct {
		Obs int `json:"obs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatalf("insert response: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("insert: status %d", resp.StatusCode)
	}

	// Visible without restart.
	resp, err = http.Get(base + "/v1/contains?obs=http://example.org/obs/live1")
	if err != nil {
		t.Fatalf("query after insert: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query after insert: status %d", resp.StatusCode)
	}

	// Graceful shutdown writes a checkpoint.
	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("daemon exit %d\nstderr: %s", code, errOut.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit after cancel")
	}
	if !strings.Contains(errOut.String(), "checkpoint (shutdown) written") {
		t.Fatalf("no shutdown checkpoint, stderr: %s", errOut.String())
	}

	// The checkpoint reloads and still knows the live insert.
	var out2, errOut2 bytes.Buffer
	if code := run(context.Background(), []string{"-snapshot", snap, "-once"}, &out2, &errOut2); code != 0 {
		t.Fatalf("reload: exit %d\nstderr: %s", code, errOut2.String())
	}
	if !strings.Contains(out2.String(), "11 observations") {
		t.Fatalf("reloaded snapshot missing the live insert: %q", out2.String())
	}
}

var addrRe = regexp.MustCompile(`serving on (\S+)`)

// waitForAddr polls the daemon's stderr for the bound address.
func waitForAddr(t *testing.T, errOut *syncBuffer, done <-chan int) string {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if m := addrRe.FindStringSubmatch(errOut.String()); m != nil {
			return "http://" + m[1]
		}
		select {
		case code := <-done:
			t.Fatalf("daemon exited early with %d: %s", code, errOut.String())
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatalf("daemon never reported its address: %s", errOut.String())
	return ""
}

func waitForOK(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("%s never became ready", url)
}

// TestLoadTurtleRoundTrip feeds a corpus exported by the library back
// through -load.
func TestLoadTurtleRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ttl := filepath.Join(dir, "corpus.ttl")
	snap := filepath.Join(dir, "idx.bin")

	// Export the example corpus with the cubegen logic's underlying API.
	data := exportExample(t)
	if err := os.WriteFile(ttl, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := run(context.Background(), []string{"-load", ttl, "-snapshot", snap, "-once"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "10 observations") {
		t.Fatalf("stdout: %q", out.String())
	}
}

func exportExample(t *testing.T) []byte {
	t.Helper()
	// Reuse the daemon's own loader plumbing via gen + turtle export.
	corpus, err := loadCorpus("", "example", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	return []byte(rdfcube.ExportTurtle(corpus))
}

// TestTasksSubsetCheck builds a full+compl snapshot and verifies it with
// the matching -tasks selection (the CI round-trip path at scale).
func TestTasksSubsetCheck(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "fc.bin")
	var out, errOut bytes.Buffer
	if code := run(context.Background(), []string{"-gen", "example", "-tasks", "full,compl", "-snapshot", snap, "-once"}, &out, &errOut); code != 0 {
		t.Fatalf("build: exit %d\nstderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "4/0/2 full/partial/compl") {
		t.Fatalf("unexpected counts: %q", out.String())
	}
	out.Reset()
	if code := run(context.Background(), []string{"-snapshot", snap, "-tasks", "full,compl", "-check"}, &out, &errOut); code != 0 {
		t.Fatalf("check: exit %d\nstderr: %s", code, errOut.String())
	}
	// A mismatched task selection must fail the check: the fresh
	// recomputation includes partial pairs the snapshot never stored.
	if code := run(context.Background(), []string{"-snapshot", snap, "-tasks", "all", "-check"}, &out, &errOut); code == 0 {
		t.Fatal("check with mismatched tasks unexpectedly passed")
	}
}

var followAddrRe = regexp.MustCompile(`following \S+ on (\S+) `)

// TestFollowerEndToEnd drives replication through the daemon flags: a
// primary and a -follow replica, live insert convergence, write
// rejection with the Leader hint, and the follower surviving the
// primary's shutdown.
func TestFollowerEndToEnd(t *testing.T) {
	dir := t.TempDir()
	pctx, pcancel := context.WithCancel(context.Background())
	defer pcancel()
	var pOut, pErr syncBuffer
	pDone := make(chan int, 1)
	go func() {
		pDone <- run(pctx, []string{"-gen", "example", "-snapshot", filepath.Join(dir, "primary.bin"),
			"-addr", "127.0.0.1:0", "-checkpoint", "0"}, &pOut, &pErr)
	}()
	primary := waitForAddr(t, &pErr, pDone)
	waitForOK(t, primary+"/readyz")

	fctx, fcancel := context.WithCancel(context.Background())
	defer fcancel()
	var fOut, fErr syncBuffer
	fDone := make(chan int, 1)
	go func() {
		fDone <- run(fctx, []string{"-follow", primary, "-snapshot", filepath.Join(dir, "replica.bin"),
			"-addr", "127.0.0.1:0", "-max-staleness", "1m", "-poll-wait", "200ms"}, &fOut, &fErr)
	}()
	follower := func() string {
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			if m := followAddrRe.FindStringSubmatch(fErr.String()); m != nil {
				return "http://" + m[1]
			}
			select {
			case code := <-fDone:
				t.Fatalf("follower exited early with %d: %s", code, fErr.String())
			case <-time.After(10 * time.Millisecond):
			}
		}
		t.Fatalf("follower never reported its address: %s", fErr.String())
		return ""
	}()
	waitForOK(t, follower+"/readyz")

	// An insert acked by the primary must become visible on the follower.
	body := `{"dataset":"http://example.org/dataset/D3","uri":"http://example.org/obs/repl1",` +
		`"dimensions":{"http://example.org/dim/refArea":"http://example.org/code/area/Rome",` +
		`"http://example.org/dim/refPeriod":"http://example.org/code/time/Feb2011"},` +
		`"measures":{"http://example.org/measure/unemployment":"0.07"}}`
	resp, err := http.Post(primary+"/v1/observations", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("insert: status %d", resp.StatusCode)
	}
	waitForOK(t, follower+"/v1/contains?obs=http://example.org/obs/repl1")

	// Writes on the follower are refused toward the leader.
	resp, err = http.Post(follower+"/v1/observations", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("follower insert: %v", err)
	}
	leader := resp.Header.Get("Leader")
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("follower insert: status %d, want 503", resp.StatusCode)
	}
	if leader != primary {
		t.Fatalf("Leader hint %q, want %q", leader, primary)
	}

	// The follower's stats carry its replication posture.
	resp, err = http.Get(follower + "/v1/stats")
	if err != nil {
		t.Fatalf("follower stats: %v", err)
	}
	var stats struct {
		Replication struct {
			Role   string `json:"role"`
			Leader string `json:"leader"`
		} `json:"replication"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatalf("follower stats: %v", err)
	}
	resp.Body.Close()
	if stats.Replication.Role != "follower" || stats.Replication.Leader != primary {
		t.Fatalf("follower stats replication: %+v", stats.Replication)
	}

	// Kill the primary; the generous staleness bound keeps the follower
	// serving ready reads.
	pcancel()
	select {
	case code := <-pDone:
		if code != 0 {
			t.Fatalf("primary exit %d\nstderr: %s", code, pErr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("primary did not exit")
	}
	waitForOK(t, follower+"/readyz")
	waitForOK(t, follower+"/v1/contains?obs=http://example.org/obs/repl1")

	fcancel()
	select {
	case code := <-fDone:
		if code != 0 {
			t.Fatalf("follower exit %d\nstderr: %s", code, fErr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("follower did not exit")
	}
}
