package gate

import (
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rdfcube/internal/gen"
	"rdfcube/internal/leakcheck"
)

// TestMigrationRecopiesWhenSourceCheckpointsMidCatchup drives the path a
// migration shares with a lagging follower: the source checkpoints — and
// so truncates its WAL — past the pump cursor while the copy is still in
// flight. The first catch-up pump is answered 410; the migration must
// bootstrap the target again from a fresh image and complete, with the
// write that landed in the gap on the target.
func TestMigrationRecopiesWhenSourceCheckpointsMidCatchup(t *testing.T) {
	leakcheck.Check(t)
	f := buildMigFleet(t, 63, true)
	var recopies atomic.Int64
	g := f.newMigGate(t, t.TempDir(), func(c *Config) {
		c.Logf = func(format string, a ...any) {
			if strings.Contains(format, "copying again") {
				recopies.Add(1)
			}
			t.Logf(format, a...)
		}
	})
	h := g.Handler()
	source := f.worlds[0]
	movedDS := source.Corpus.Datasets[0]

	// The first request the target sees (the schema registration) proves
	// the source image — and with it the pump cursor — has been taken.
	// Hold it there while the source moves on.
	spare := f.servers["spare"].Handler()
	imagePulled, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	f.tr.add("shard-spare-primary", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() {
			close(imagePulled)
			<-release
		})
		spare.ServeHTTP(w, r)
	}))

	spec := MigrationSpec{ID: "m-gone", Datasets: []string{movedDS.URI.Value}, From: source.Name, To: "spare"}
	if _, err := g.StartMigration(spec); err != nil {
		t.Fatalf("start: %v", err)
	}
	select {
	case <-imagePulled:
	case <-time.After(10 * time.Second):
		t.Fatal("copy never reached the target")
	}
	gapURI := gen.ExNS + "obs/in-the-gap"
	if code, rb := postBody(t, h, "/v1/observations", twinInsert(movedDS, 2, gapURI)); code != http.StatusCreated {
		t.Fatalf("insert into the gap: %d %s", code, rb)
	}
	if err := f.servers[source.Name].CheckpointWith(func([]byte) error { return nil }); err != nil {
		t.Fatalf("source checkpoint: %v", err)
	}
	close(release)

	st := waitMigration(t, g, "m-gone", PhaseDone, 20*time.Second)
	if recopies.Load() == 0 {
		t.Fatalf("migration finished without copying again: the 410 path was not taken (state %+v)", st)
	}
	if g.Epoch() != 2 {
		t.Fatalf("epoch after cutover = %d, want 2", g.Epoch())
	}
	if code, body := get(t, spare, relatedPath(gapURI)); code != http.StatusOK {
		t.Fatalf("the write that landed in the truncated gap is not on the target: %d %s", code, body)
	}
}

// TestMigrationWALLessSourceFailsInCopy: a source that runs without a WAL
// cannot be tailed, and its /v1/snapshot says so by carrying no stream.
// The migration must fail in copy with the follower's diagnosis — not
// copy happily from position "" and discover the 503 as a catch-up
// timeout a PhaseTimeout later.
func TestMigrationWALLessSourceFailsInCopy(t *testing.T) {
	leakcheck.Check(t)
	f := buildMigFleet(t, 65, true)
	source := f.worlds[1]
	f.tr.add("shard-"+source.Name+"-primary", buildShardServer(t, source.Corpus).Handler())
	g := f.newMigGate(t, t.TempDir(), nil)

	started := time.Now()
	spec := MigrationSpec{ID: "m-nowal", Datasets: source.Datasets[:1], From: source.Name, To: "spare"}
	if _, err := g.StartMigration(spec); err != nil {
		t.Fatalf("start: %v", err)
	}
	var st MigrationState
	for st = migState(t, g, "m-nowal"); st.Error == ""; st = migState(t, g, "m-nowal") {
		if time.Since(started) > 10*time.Second {
			t.Fatalf("migration off a WAL-less source has not failed after 10s: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.Phase != PhaseCopy || !strings.Contains(st.Error, "does not replicate") {
		t.Fatalf("failed in phase %s with %q, want phase %s and the \"does not replicate\" diagnosis", st.Phase, st.Error, PhaseCopy)
	}
	if st.Copied != 0 || g.Epoch() != 1 {
		t.Fatalf("a migration that cannot tail its source copied %d observations (epoch %d)", st.Copied, g.Epoch())
	}
}
