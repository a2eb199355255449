package replica

import (
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rdfcube/internal/faultfs"
	"rdfcube/internal/leakcheck"
)

// serves reports whether the follower answers 200 for uri right now.
func serves(f *Follower, uri string) bool {
	rec := httptest.NewRecorder()
	f.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/contains?obs="+uri, nil))
	return rec.Code == http.StatusOK
}

// TestFollowerFailedRebootstrapKeepsOldCursor is the cursor-on-commit
// regression. A follower with a local chain is down across an insert and
// a dataset registration (whose checkpoint truncates the primary's WAL
// past that insert), then restarts on a disk whose renames fail: the
// 410-triggered re-bootstrap cannot commit its local generation. The old
// code had already moved the cursor to the new image's position, so the
// next session skipped the bootstrap and tailed the NEW position into the
// OLD state — serving the observation inserted after the hole, answering
// 400 for the one inside it, and reporting lag 0. The follower must
// instead keep retrying the bootstrap, never serve past the hole, never
// claim to be caught up — and, once the disk heals, converge with exactly
// one counted bootstrap.
func TestFollowerFailedRebootstrapKeepsOldCursor(t *testing.T) {
	leakcheck.Check(t)
	p := newPrimary(t)
	uriBefore := p.insert(t)

	disk := faultfs.NewMemFS()
	var commitFailures atomic.Int64
	cfg := Config{
		Primary:       p.ts.URL,
		FS:            disk,
		SnapshotPath:  "replica.bin",
		MaxStaleness:  time.Hour, // readiness then says whether the follower ever claimed to be level
		PollWait:      50 * time.Millisecond,
		ReconnectBase: 5 * time.Millisecond,
		ReconnectMax:  20 * time.Millisecond,
		Logf: func(format string, a ...any) {
			line := fmt.Sprintf(format, a...)
			if strings.Contains(line, "reconnecting") && strings.Contains(line, "committing local generation") {
				commitFailures.Add(1)
			}
			t.Log(line)
		},
	}
	f1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stop1 := runFollower(t, f1)
	waitHas(t, f1, uriBefore)
	stop1()

	uriInHole := p.insert(t)
	dsNew := p.registerDataset(t, "Dhole")
	uriAfterHole := p.insertInto(t, dsNew)

	disk.Inject(faultfs.Fault{Op: faultfs.OpRename, N: 1, Persistent: true})
	f2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runFollower(t, f2)

	// Watch across at least three failed commits: the old code needed one.
	deadline := time.Now().Add(20 * time.Second)
	for commitFailures.Load() < 3 {
		if serves(f2, uriAfterHole) && !serves(f2, uriInHole) {
			t.Fatalf("follower serves %s (inserted after the hole) while %s (inside it) is missing", uriAfterHole, uriInHole)
		}
		if f2.State().Bootstraps() != 0 {
			t.Fatalf("follower counted %d bootstraps on a disk that cannot commit one", f2.State().Bootstraps())
		}
		if !f2.State().Stale() {
			t.Fatalf("follower claims to be caught up (lag %d, staleness %s) without the image it needs",
				f2.State().LagRecords(), f2.State().Staleness())
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d failed bootstrap commits in 20s: the follower stopped retrying", commitFailures.Load())
		}
		time.Sleep(2 * time.Millisecond)
	}

	disk.Inject(faultfs.Fault{}) // heal
	waitHas(t, f2, uriInHole)
	waitHas(t, f2, uriAfterHole)
	waitHas(t, f2, uriBefore)
	if got := f2.State().Bootstraps(); got != 1 {
		t.Fatalf("healed follower counted %d bootstraps, want exactly 1", got)
	}
	for deadline = time.Now().Add(10 * time.Second); f2.State().Stale() || f2.State().LagRecords() != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("healed follower never reported level: lag %d staleness %s", f2.State().LagRecords(), f2.State().Staleness())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestFollowerLocalAppendFailureLeavesNoPosition pins the other half of
// "the chain covers the cursor": a batch the local WAL refused is still
// applied in memory (the follower keeps serving), but from then on no
// position file may exist until a checkpoint or bootstrap makes the chain
// whole — the old code removed the file and rewrote it a line later, so a
// crash resumed over the missing batch. Power-cut the disk and restart on
// it: the follower must bootstrap and serve every record.
func TestFollowerLocalAppendFailureLeavesNoPosition(t *testing.T) {
	leakcheck.Check(t)
	p := newPrimary(t)
	uris := []string{p.insert(t)}

	disk := faultfs.NewMemFS()
	cfg := Config{
		Primary:       p.ts.URL,
		FS:            disk,
		SnapshotPath:  "replica.bin",
		PollWait:      50 * time.Millisecond,
		ReconnectBase: 5 * time.Millisecond,
		Logf:          t.Logf,
	}
	f1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runFollower(t, f1)
	waitHas(t, f1, uris[0])
	if _, err := disk.ReadFile("replica.bin.wal.pos"); err != nil {
		t.Fatalf("no position file after bootstrap: %v", err)
	}

	// The next write on the follower's disk — the local append of the next
	// replicated batch — fails once. Two more batches follow it cleanly.
	disk.Inject(faultfs.Fault{Op: faultfs.OpWrite, N: 1})
	for i := 0; i < 3; i++ {
		uris = append(uris, p.insert(t))
		waitHas(t, f1, uris[len(uris)-1])
	}
	if !disk.Tripped() {
		t.Fatal("the write fault never fired: the test exercised nothing")
	}
	crashed := disk.Clone()
	crashed.Crash()
	if _, err := crashed.ReadFile("replica.bin.wal.pos"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("position file survives over a holed local chain (err %v)", err)
	}

	cfg.FS = crashed
	f2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runFollower(t, f2)
	for _, uri := range uris {
		waitHas(t, f2, uri)
	}
	if got := f2.State().Bootstraps(); got != 1 {
		t.Fatalf("restart over a holed chain bootstrapped %d times, want 1", got)
	}
}
