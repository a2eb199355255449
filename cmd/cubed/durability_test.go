package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rdfcube/internal/snapshot"
)

// startDaemon boots run() in a goroutine against dir/idx.bin and waits
// for the bound address. Extra args are appended after the defaults.
func startDaemon(t *testing.T, ctx context.Context, snap string, extra ...string) (base string, errOut *syncBuffer, done chan int) {
	t.Helper()
	args := append([]string{"-gen", "example", "-snapshot", snap, "-addr", "127.0.0.1:0", "-checkpoint", "0"}, extra...)
	var out syncBuffer
	errOut = &syncBuffer{}
	done = make(chan int, 1)
	go func() { done <- run(ctx, args, &out, errOut) }()
	base = waitForAddr(t, errOut, done)
	waitForOK(t, base+"/readyz")
	return base, errOut, done
}

// insertLive posts one valid observation with the given URI suffix and
// requires a 201.
func insertLive(t *testing.T, base string, i int) string {
	t.Helper()
	uri := fmt.Sprintf("http://example.org/obs/crash%d", i)
	body := fmt.Sprintf(`{"dataset":"http://example.org/dataset/D3","uri":%q,`+
		`"dimensions":{"http://example.org/dim/refArea":"http://example.org/code/area/Rome",`+
		`"http://example.org/dim/refPeriod":"http://example.org/code/time/Feb2011"},`+
		`"measures":{"http://example.org/measure/unemployment":"0.07"}}`, uri)
	resp, err := http.Post(base+"/v1/observations", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("insert %d: %v", i, err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("insert %d: status %d", i, resp.StatusCode)
	}
	return uri
}

// copyDir copies every regular file of src into dst — the crash
// simulation: the copy sees exactly the bytes on "disk" mid-run, and the
// original daemon never gets to run its shutdown checkpoint against it.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCrashRestartReplaysWAL is the daemon-level kill-restart test: a
// running daemon acknowledges inserts, the data directory is copied
// mid-run (so the copy holds the pre-insert snapshot generation plus the
// fsynced WAL, but never a shutdown checkpoint), and a fresh daemon over
// the copy must replay the log and serve every acknowledged insert.
func TestCrashRestartReplaysWAL(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "idx.bin")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base, _, done := startDaemon(t, ctx, snap)

	const inserts = 3
	var uris []string
	for i := 0; i < inserts; i++ {
		uris = append(uris, insertLive(t, base, i))
	}

	// "Crash": image the data directory while the daemon is still up.
	crashDir := t.TempDir()
	copyDir(t, dir, crashDir)
	cancel()
	<-done

	// Restart over the crash image.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	base2, errOut2, done2 := startDaemon(t, ctx2, filepath.Join(crashDir, "idx.bin"))
	if !strings.Contains(errOut2.String(), fmt.Sprintf("replayed %d WAL records", inserts)) {
		t.Fatalf("no replay log line, stderr: %s", errOut2.String())
	}
	for _, uri := range uris {
		resp, err := http.Get(base2 + "/v1/contains?obs=" + uri)
		if err != nil {
			t.Fatalf("query %s: %v", uri, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("acked insert %s lost across crash: status %d", uri, resp.StatusCode)
		}
	}
	cancel2()
	if code := <-done2; code != 0 {
		t.Fatalf("restarted daemon exit %d", code)
	}

	// After the restarted daemon's shutdown checkpoint, the WAL records
	// are folded into a generation: a third start must load them from the
	// snapshot without replaying.
	var out3, errOut3 syncBuffer
	done3 := make(chan int, 1)
	ctx3, cancel3 := context.WithCancel(context.Background())
	defer cancel3()
	go func() {
		done3 <- run(ctx3, []string{"-snapshot", filepath.Join(crashDir, "idx.bin"), "-once"}, &out3, &errOut3)
	}()
	if code := <-done3; code != 0 {
		t.Fatalf("third start: exit %d\nstderr: %s", code, errOut3.String())
	}
	if !strings.Contains(out3.String(), fmt.Sprintf("%d observations", 10+inserts)) {
		t.Fatalf("checkpoint after replay lost observations: %q", out3.String())
	}
}

// TestShutdownDuringTimerCheckpoints is the regression test for the
// SIGTERM-vs-timer checkpoint race: with an aggressive checkpoint
// interval, cancellation arriving between (or during) timer checkpoints
// must still exit cleanly and leave a loadable snapshot.
func TestShutdownDuringTimerCheckpoints(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "idx.bin")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base, errOut, done := startDaemon(t, ctx, snap, "-checkpoint", "5ms")

	insertLive(t, base, 100)
	// Let a few timer checkpoints fire, then yank the daemon mid-stream.
	time.Sleep(25 * time.Millisecond)
	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("daemon exit %d\nstderr: %s", code, errOut.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit")
	}

	// Whatever interleaving happened, the surviving state must verify.
	var out2, errOut2 syncBuffer
	if code := run(context.Background(), []string{"-snapshot", snap, "-check"}, &out2, &errOut2); code != 0 {
		t.Fatalf("post-race check failed: exit %d\nstderr: %s", code, errOut2.String())
	}
	if !strings.Contains(out2.String(), "11 observations") {
		t.Fatalf("post-race state lost the insert: %q", out2.String())
	}
}

// TestV1SnapshotUpgradesOnCheckpoint: a plain snapshot file in format
// version 1, as builds before version 2 wrote it, passes -check, serves,
// and the next checkpoint commits it as a version 2 generation that
// -check passes again.
func TestV1SnapshotUpgradesOnCheckpoint(t *testing.T) {
	v1, err := os.ReadFile("../../internal/snapshot/testdata/paper_example_v1.snap")
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(v1[8:]); v != 1 {
		t.Fatalf("fixture is version %d, want 1", v)
	}
	dir := t.TempDir()
	snap := filepath.Join(dir, "idx.bin")
	if err := os.WriteFile(snap, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	check := func() string {
		t.Helper()
		var out, errOut bytes.Buffer
		if code := run(context.Background(), []string{"-snapshot", snap, "-check"}, &out, &errOut); code != 0 {
			t.Fatalf("check: exit %d\nstderr: %s", code, errOut.String())
		}
		return out.String()
	}
	check()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base, errOut, done := startDaemon(t, ctx, snap)
	if !strings.Contains(errOut.String(), "loaded snapshot "+snap) {
		t.Fatalf("daemon did not load the v1 file: %s", errOut.String())
	}
	insertLive(t, base, 300)
	cancel()
	if code := <-done; code != 0 {
		t.Fatalf("daemon exit %d\nstderr: %s", code, errOut.String())
	}
	gen, err := os.ReadFile(snap + ".000001")
	if err != nil {
		t.Fatalf("shutdown checkpoint wrote no generation: %v", err)
	}
	if v := binary.LittleEndian.Uint32(gen[8:]); v != snapshot.Version {
		t.Fatalf("checkpoint wrote version %d, want %d", v, snapshot.Version)
	}
	if out := check(); !strings.Contains(out, "11 observations") {
		t.Fatalf("the upgraded generation lost the insert: %q", out)
	}
}

// TestCorruptWALIsQuarantinedAtStartup: a WAL whose header is garbage
// must not stop the daemon — it is renamed aside (evidence intact) and a
// fresh log replaces it.
func TestCorruptWALIsQuarantinedAtStartup(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "idx.bin")
	if err := os.WriteFile(snap+".wal", []byte("this is not a wal header"), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base, errOut, done := startDaemon(t, ctx, snap)
	if !strings.Contains(errOut.String(), "quarantined") {
		t.Fatalf("no quarantine log line: %s", errOut.String())
	}
	if data, err := os.ReadFile(snap + ".wal.corrupt"); err != nil || string(data) != "this is not a wal header" {
		t.Fatalf("quarantined WAL evidence missing or altered: %v", err)
	}
	// Inserts work against the fresh log.
	insertLive(t, base, 200)
	cancel()
	if code := <-done; code != 0 {
		t.Fatalf("exit %d", code)
	}
}

// TestWALOffDisablesDurability: -wal off serves without creating a log.
func TestWALOffDisablesDurability(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "idx.bin")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base, _, done := startDaemon(t, ctx, snap, "-wal", "off")
	insertLive(t, base, 300)
	if _, err := os.Stat(snap + ".wal"); !os.IsNotExist(err) {
		t.Fatalf("-wal off still created a log: %v", err)
	}
	cancel()
	if code := <-done; code != 0 {
		t.Fatalf("exit %d", code)
	}
}
