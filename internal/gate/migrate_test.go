package gate

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rdfcube/internal/core"
	"rdfcube/internal/faultfs"
	"rdfcube/internal/gen"
	"rdfcube/internal/leakcheck"
	"rdfcube/internal/obsv"
	"rdfcube/internal/qb"
	"rdfcube/internal/serve"
	"rdfcube/internal/snapshot"
	"rdfcube/internal/wal"
)

// durableShard builds a WAL-backed shard server with the registration
// checkpoint hook wired — the shape cubed runs in production and the
// shape migration requires (/v1/snapshot + /v1/wal + POST /v1/datasets).
func durableShard(t *testing.T, c *qb.Corpus) *serve.Server {
	t.Helper()
	s, res, err := core.ComputeCorpusCtx(context.Background(), c, core.AlgorithmCubeMasking, core.Options{})
	if err != nil {
		t.Fatalf("compute: %v", err)
	}
	wlog, _, err := wal.Open(faultfs.NewMemFS(), "cube.wal")
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	var srv *serve.Server
	cfg := serve.Config{WAL: wlog, CheckpointNow: func() error {
		return srv.CheckpointWith(func([]byte) error { return nil })
	}}
	srv, err = serve.New(snapshot.New(s, res, nil), cfg)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	t.Cleanup(srv.BeginShutdown)
	return srv
}

// stubCorpus builds the empty corpus a brand-new shard boots with: every
// dataset's schema, zero observations. The stubs pin the full dimension
// universe (partial degrees normalize by the same |P| as everywhere
// else) and pre-publish the schemas, so migration registration is a
// 200-exists no-op.
func stubCorpus(combined *qb.Corpus) *qb.Corpus {
	c := qb.NewCorpus(combined.Hierarchies)
	for _, ds := range combined.Datasets {
		c.AddDataset(&qb.Dataset{URI: ds.URI, Schema: ds.Schema})
	}
	return c
}

// migFleet is the rebalancing test topology: three relationship-closed
// DisjointMeasures shards plus one empty "spare" shard to migrate into,
// and an unsharded oracle.
type migFleet struct {
	tr       *hostTransport
	worlds   []*gen.ShardWorld
	combined *qb.Corpus
	shards   []ShardConfig
	servers  map[string]*serve.Server
	oracle   *serve.Server
	sample   []string
}

func buildMigFleet(t *testing.T, seed int64) *migFleet {
	t.Helper()
	worlds, combined := gen.ShardWorlds(gen.ShardWorldsConfig{Seed: seed, ObsPerDataset: 10, DisjointMeasures: true})
	f := &migFleet{tr: newHostTransport(), worlds: worlds, combined: combined, servers: map[string]*serve.Server{}}
	for _, w := range worlds {
		srv := durableShard(t, w.Corpus)
		host := "shard-" + w.Name + "-primary"
		f.tr.add(host, srv.Handler())
		f.shards = append(f.shards, ShardConfig{Name: w.Name, Primary: "http://" + host, Datasets: w.Datasets})
		f.servers[w.Name] = srv
		for _, ds := range w.Corpus.Datasets {
			f.sample = append(f.sample, ds.Observations[0].URI.Value, ds.Observations[5].URI.Value)
		}
	}
	spare := durableShard(t, stubCorpus(combined))
	f.tr.add("shard-spare-primary", spare.Handler())
	f.shards = append(f.shards, ShardConfig{Name: "spare", Primary: "http://shard-spare-primary"})
	f.servers["spare"] = spare
	f.oracle = buildShardServer(t, combined)
	f.tr.add("oracle", f.oracle.Handler())
	return f
}

// newMigGate builds a gate with fast migration pacing and a state dir.
func (f *migFleet) newMigGate(t *testing.T, stateDir string, mut func(*Config)) *Gate {
	t.Helper()
	cfg := Config{
		Shards:            f.shards,
		Epoch:             1,
		Transport:         f.tr,
		ProbeInterval:     -1,
		Recorder:          obsv.NewCollector(),
		MigrationStateDir: stateDir,
		Migrator: MigratorOptions{
			Interval:     5 * time.Millisecond,
			DrainWindow:  40 * time.Millisecond,
			MatchRounds:  2,
			SampleReads:  4,
			PhaseTimeout: 20 * time.Second,
		},
	}
	if mut != nil {
		mut(&cfg)
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatalf("gate.New: %v", err)
	}
	t.Cleanup(g.Close)
	return g
}

func (f *migFleet) oracleGate(t *testing.T) *Gate {
	t.Helper()
	var datasets []string
	for _, w := range f.worlds {
		datasets = append(datasets, w.Datasets...)
	}
	g, err := New(Config{
		Shards:        []ShardConfig{{Name: "all", Primary: "http://oracle", Datasets: datasets}},
		Transport:     f.tr,
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatalf("oracle gate.New: %v", err)
	}
	t.Cleanup(g.Close)
	return g
}

// migState finds one migration's state off the gate, by ID.
func migState(t *testing.T, g *Gate, id string) MigrationState {
	t.Helper()
	for _, st := range g.Migrations() {
		if st.Spec.ID == id {
			return st
		}
	}
	t.Fatalf("migration %q not known to gate", id)
	return MigrationState{}
}

// waitMigration polls until the migration reaches wantPhase or records
// an error; failing the test on timeout.
func waitMigration(t *testing.T, g *Gate, id, wantPhase string, timeout time.Duration) MigrationState {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := migState(t, g, id)
		if st.Phase == wantPhase {
			return st
		}
		if st.Error != "" && wantPhase != PhaseDone || st.Phase == PhaseDone || st.Phase == PhaseAborted {
			if st.Phase != wantPhase {
				t.Fatalf("migration %s reached phase %s (error %q), want %s", id, st.Phase, st.Error, wantPhase)
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("migration %s stuck in phase %s (error %q), want %s", id, st.Phase, st.Error, wantPhase)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// twinInsert builds an insert body that twins an existing observation
// of ds under a fresh URI (guaranteed complementarity neighbor, so the
// write visibly changes relationship answers).
func twinInsert(ds *qb.Dataset, obsIdx int, uri string) map[string]any {
	o := ds.Observations[obsIdx]
	dims := map[string]string{}
	for i, d := range ds.Schema.Dimensions {
		dims[d.Value] = o.DimValues[i].Value
	}
	return map[string]any{
		"dataset":    ds.URI.Value,
		"uri":        uri,
		"dimensions": dims,
		"measures":   map[string]string{ds.Schema.Measures[0].Value: "777"},
	}
}

func postBody(t *testing.T, h http.Handler, path string, v any) (int, []byte) {
	t.Helper()
	b, _ := json.Marshal(v)
	req := httptest.NewRequest("POST", path, bytes.NewReader(b))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// TestMigrationLifecycle is the tentpole end-to-end: copy → catch-up →
// double-read → cutover → drain over live shards, with writes landing
// mid-flight. Afterwards the map has moved (epoch+1), new writes route
// to the target, and every merged read is byte-equal to the unsharded
// oracle that received the same writes.
func TestMigrationLifecycle(t *testing.T) {
	leakcheck.Check(t)
	f := buildMigFleet(t, 51)
	stateDir := t.TempDir()
	g := f.newMigGate(t, stateDir, nil)
	og := f.oracleGate(t)
	h, oh := g.Handler(), og.Handler()

	movedDS := f.worlds[0].Corpus.Datasets[1]
	spec := MigrationSpec{ID: "m1", Datasets: []string{movedDS.URI.Value}, From: f.worlds[0].Name, To: "spare"}
	if code, body := postBody(t, h, "/v1/migrations", spec); code != http.StatusAccepted {
		t.Fatalf("start migration: %d %s", code, body)
	}
	// Duplicate start while running: 409.
	if code, _ := postBody(t, h, "/v1/migrations", spec); code != http.StatusConflict {
		t.Fatalf("duplicate start: %d, want 409", code)
	}

	// Writes land while the migration runs; mirror them into the oracle
	// so the final byte-comparison covers them.
	var inserted []string
	for i := 0; i < 3; i++ {
		uri := gen.ExNS + "obs/migflight/" + string(rune('a'+i))
		body := twinInsert(movedDS, i, uri)
		if code, rb := postBody(t, h, "/v1/observations", body); code != http.StatusCreated {
			t.Fatalf("mid-flight insert %d: %d %s", i, code, rb)
		}
		if code, rb := postBody(t, f.oracle.Handler(), "/v1/observations", body); code != http.StatusCreated {
			t.Fatalf("oracle mirror insert %d: %d %s", i, code, rb)
		}
		inserted = append(inserted, uri)
		time.Sleep(10 * time.Millisecond)
	}

	st := waitMigration(t, g, "m1", PhaseDone, 15*time.Second)
	if st.Copied == 0 || st.MapEpoch != 2 {
		t.Fatalf("final state: %+v", st)
	}
	if g.Epoch() != 2 {
		t.Fatalf("epoch after cutover = %d, want 2", g.Epoch())
	}
	if got := g.table().byDataset[movedDS.URI.Value].name; got != "spare" {
		t.Fatalf("moved dataset routed to %s, want spare", got)
	}

	// A post-cutover write routes to the TARGET: visible there, absent
	// from the source.
	postURI := gen.ExNS + "obs/migflight/post"
	post := twinInsert(movedDS, 4, postURI)
	if code, rb := postBody(t, h, "/v1/observations", post); code != http.StatusCreated {
		t.Fatalf("post-cutover insert: %d %s", code, rb)
	}
	if code, rb := postBody(t, f.oracle.Handler(), "/v1/observations", post); code != http.StatusCreated {
		t.Fatalf("oracle mirror post-cutover insert: %d %s", code, rb)
	}
	if code, _ := get(t, f.servers["spare"].Handler(), relatedPath(postURI)); code != http.StatusOK {
		t.Fatalf("post-cutover observation not on target (status %d)", code)
	}
	if code, _ := get(t, f.servers[f.worlds[0].Name].Handler(), relatedPath(postURI)); code == http.StatusOK {
		t.Fatal("post-cutover observation leaked to the source shard")
	}

	// Byte-equal oracle convergence over original and mid-flight URIs.
	uris := append(append([]string{}, f.sample...), inserted...)
	uris = append(uris, postURI)
	for _, uri := range uris {
		gc, gb := get(t, h, relatedPath(uri))
		oc, ob := get(t, oh, relatedPath(uri))
		if gc != oc || !bytes.Equal(gb, ob) {
			t.Fatalf("post-migration divergence on %s:\n gate:   %d %s\n oracle: %d %s", uri, gc, gb, oc, ob)
		}
	}

	// The state file is terminal and the phase is visible in /readyz.
	// setPhase publishes a phase before it persists it, so the file is
	// only known to say "done" once the migration goroutine has exited.
	g.migMu.Lock()
	m := g.migrations["m1"]
	g.migMu.Unlock()
	<-m.Done()
	data, err := os.ReadFile(filepath.Join(stateDir, "m1.json"))
	if err != nil {
		t.Fatalf("state file: %v", err)
	}
	var onDisk MigrationState
	if json.Unmarshal(data, &onDisk) != nil || onDisk.Phase != PhaseDone {
		t.Fatalf("state file contents: %s", data)
	}
	_, rb := get(t, h, "/readyz")
	if !strings.Contains(string(rb), `"m1":"done"`) {
		t.Fatalf("readyz does not show migration phase: %s", rb)
	}
}

// TestMigrationAbortKeepsSourceAuthoritative: aborting a migration
// mid-copy leaves the map untouched, reads exact, and writes routing to
// the source. Also pins the admin error surface: unknown ID 404,
// invalid specs 400.
func TestMigrationAbortKeepsSourceAuthoritative(t *testing.T) {
	leakcheck.Check(t)
	f := buildMigFleet(t, 53)
	g := f.newMigGate(t, t.TempDir(), nil)
	h := g.Handler()

	// Invalid specs are refused up front.
	if code, _ := postBody(t, h, "/v1/migrations", MigrationSpec{ID: "bad1", Datasets: []string{"nope"}, From: "g0", To: "spare"}); code != http.StatusBadRequest {
		t.Fatalf("unowned dataset spec: %d, want 400", code)
	}
	if code, _ := postBody(t, h, "/v1/migrations", MigrationSpec{ID: "bad2", Datasets: f.worlds[0].Datasets[:1], From: "g0", To: "nowhere"}); code != http.StatusBadRequest {
		t.Fatalf("unknown target spec: %d, want 400", code)
	}
	if code, _ := postBody(t, h, "/v1/migrations/ghost/abort", nil); code != http.StatusNotFound {
		t.Fatalf("abort unknown: %d, want 404", code)
	}

	// Slow the target so the copy phase lasts long enough to abort.
	f.tr.setDelay("shard-spare-primary", 40*time.Millisecond)
	moved := f.worlds[0].Datasets[0]
	spec := MigrationSpec{ID: "m-abort", Datasets: []string{moved}, From: f.worlds[0].Name, To: "spare"}
	if code, body := postBody(t, h, "/v1/migrations", spec); code != http.StatusAccepted {
		t.Fatalf("start: %d %s", code, body)
	}
	waitMigration(t, g, "m-abort", PhaseCopy, 5*time.Second)
	if code, body := postBody(t, h, "/v1/migrations/m-abort/abort", nil); code != http.StatusOK {
		t.Fatalf("abort: %d %s", code, body)
	}
	f.tr.setDelay("shard-spare-primary", 0)

	st := migState(t, g, "m-abort")
	if st.Phase != PhaseAborted {
		t.Fatalf("phase after abort: %s", st.Phase)
	}
	if g.Epoch() != 1 {
		t.Fatalf("epoch after abort: %d, want unchanged 1", g.Epoch())
	}
	if got := g.table().byDataset[moved].name; got != f.worlds[0].Name {
		t.Fatalf("dataset routed to %s after abort, want source %s", got, f.worlds[0].Name)
	}
	// Source still serves writes for the dataset.
	ins := twinInsert(f.worlds[0].Corpus.Datasets[0], 1, gen.ExNS+"obs/after-abort")
	if code, rb := postBody(t, h, "/v1/observations", ins); code != http.StatusCreated {
		t.Fatalf("insert after abort: %d %s", code, rb)
	}
}

// TestMigrationAbortAfterFailureIsTerminal: aborting a migration whose
// goroutine already FAILED and exited (target unreachable, error
// recorded, phase left at copy) must still persist PhaseAborted — the
// runner is no longer around to do it, and without the transition the
// abort is a silent no-op that a successor gate's resume scan would
// revive.
func TestMigrationAbortAfterFailureIsTerminal(t *testing.T) {
	leakcheck.Check(t)
	f := buildMigFleet(t, 57)
	stateDir := t.TempDir()
	g := f.newMigGate(t, stateDir, nil)
	h := g.Handler()

	// The target refuses every request: the copy phase fails for good
	// and the migration goroutine exits with the error recorded.
	f.tr.setFail("shard-spare-primary", true)
	spec := MigrationSpec{ID: "m-dead", Datasets: f.worlds[0].Datasets[:1], From: f.worlds[0].Name, To: "spare"}
	if code, body := postBody(t, h, "/v1/migrations", spec); code != http.StatusAccepted {
		t.Fatalf("start: %d %s", code, body)
	}
	deadline := time.Now().Add(15 * time.Second)
	for migState(t, g, "m-dead").Error == "" {
		if time.Now().After(deadline) {
			t.Fatal("migration against a dead target never recorded its failure")
		}
		time.Sleep(5 * time.Millisecond)
	}

	if code, body := postBody(t, h, "/v1/migrations/m-dead/abort", nil); code != http.StatusOK {
		t.Fatalf("abort of a failed migration: %d %s", code, body)
	}
	if st := migState(t, g, "m-dead"); st.Phase != PhaseAborted {
		t.Fatalf("phase after aborting a failed migration: %s, want %s", st.Phase, PhaseAborted)
	}

	// Terminal on disk: a successor gate over the same state dir must
	// not revive it.
	g.Close()
	data, err := os.ReadFile(filepath.Join(stateDir, "m-dead.json"))
	if err != nil {
		t.Fatalf("state file: %v", err)
	}
	var onDisk MigrationState
	if json.Unmarshal(data, &onDisk) != nil || onDisk.Phase != PhaseAborted {
		t.Fatalf("persisted state after abort: %s", data)
	}
	g2 := f.newMigGate(t, stateDir, nil)
	resumed, err := g2.ResumeMigrations()
	if err != nil {
		t.Fatalf("ResumeMigrations: %v", err)
	}
	if len(resumed) != 0 {
		t.Fatalf("successor gate revived %d aborted migrations, want 0", len(resumed))
	}
}

// TestMigrationResumeAfterGateRestart: a gate stopped mid-migration
// leaves a resumable state file; a successor gate resumes it to
// completion and installs the cutover.
func TestMigrationResumeAfterGateRestart(t *testing.T) {
	leakcheck.Check(t)
	f := buildMigFleet(t, 57)
	stateDir := t.TempDir()

	f.tr.setDelay("shard-spare-primary", 30*time.Millisecond)
	moved := f.worlds[1].Datasets[1]
	spec := MigrationSpec{ID: "m-resume", Datasets: []string{moved}, From: f.worlds[1].Name, To: "spare"}

	g1 := f.newMigGate(t, stateDir, nil)
	if _, err := g1.StartMigration(spec); err != nil {
		t.Fatalf("start: %v", err)
	}
	waitMigration(t, g1, "m-resume", PhaseCopy, 5*time.Second)
	g1.Close() // stop mid-copy: resumable, NOT aborted

	data, err := os.ReadFile(filepath.Join(stateDir, "m-resume.json"))
	if err != nil {
		t.Fatalf("state file after stop: %v", err)
	}
	var st MigrationState
	if json.Unmarshal(data, &st) != nil || st.Phase == PhaseAborted || st.Phase == PhaseDone {
		t.Fatalf("state after stop: %s", data)
	}

	f.tr.setDelay("shard-spare-primary", 0)
	g2 := f.newMigGate(t, stateDir, nil)
	resumed, err := g2.ResumeMigrations()
	if err != nil || len(resumed) != 1 {
		t.Fatalf("ResumeMigrations: %v (resumed %d)", err, len(resumed))
	}
	final := waitMigration(t, g2, "m-resume", PhaseDone, 15*time.Second)
	if final.MapEpoch != 2 || g2.Epoch() != 2 {
		t.Fatalf("after resume: state %+v, gate epoch %d", final, g2.Epoch())
	}
	if got := g2.table().byDataset[moved].name; got != "spare" {
		t.Fatalf("dataset routed to %s after resumed cutover, want spare", got)
	}
	// A second resume scan is a no-op (the file is terminal).
	if again, err := g2.ResumeMigrations(); err != nil || len(again) != 0 {
		t.Fatalf("second resume: %v (resumed %d)", err, len(again))
	}
}

// TestDoubleReadMismatchIsMetricNotError: a target that diverges from
// the source (here: pre-seeded with an extra twin) must never cut over.
// The mismatches surface as counters in /v1/stats while reads keep
// answering 200 — verification failure is an operator signal, not a
// client outage.
func TestDoubleReadMismatchIsMetricNotError(t *testing.T) {
	leakcheck.Check(t)
	f := buildMigFleet(t, 59)
	g := f.newMigGate(t, t.TempDir(), func(c *Config) {
		c.Migrator.PhaseTimeout = 1200 * time.Millisecond
		c.Migrator.SampleReads = 100 // verify every observation
	})
	h := g.Handler()

	// Poison the target: a twin of a source observation that the source
	// does not have, so canonical answers can never agree.
	movedDS := f.worlds[2].Corpus.Datasets[0]
	poison := twinInsert(movedDS, 0, gen.ExNS+"obs/poison")
	if code, rb := postBody(t, f.servers["spare"].Handler(), "/v1/observations", poison); code != http.StatusCreated {
		t.Fatalf("poison insert: %d %s", code, rb)
	}

	spec := MigrationSpec{ID: "m-poison", Datasets: []string{movedDS.URI.Value}, From: f.worlds[2].Name, To: "spare"}
	if code, body := postBody(t, h, "/v1/migrations", spec); code != http.StatusAccepted {
		t.Fatalf("start: %d %s", code, body)
	}

	deadline := time.Now().Add(10 * time.Second)
	var st MigrationState
	for {
		st = migState(t, g, "m-poison")
		if st.Error != "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("migration never failed: %+v", st)
		}
		// Reads stay healthy throughout the verification window.
		if code, body := get(t, h, relatedPath(f.sample[0])); code != http.StatusOK {
			t.Fatalf("read during double-read window: %d %s", code, body)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.Phase != PhaseDoubleRead || st.Mismatches == 0 {
		t.Fatalf("failed state: %+v", st)
	}
	if g.Epoch() != 1 {
		t.Fatalf("epoch after failed verification: %d, want unchanged 1", g.Epoch())
	}
	var stats struct {
		DoubleReadMismatches int64 `json:"doubleReadMismatches"`
		Migrations           []struct {
			ID    string `json:"id"`
			Phase string `json:"phase"`
		} `json:"migrations"`
	}
	_, sb := get(t, h, "/v1/stats")
	if err := json.Unmarshal(sb, &stats); err != nil || stats.DoubleReadMismatches == 0 {
		t.Fatalf("stats after mismatches: %s", sb)
	}
	if len(stats.Migrations) != 1 || stats.Migrations[0].ID != "m-poison" {
		t.Fatalf("stats migrations: %s", sb)
	}
}

// TestMigrationReadsExactMidFlight: while a migration is mid-copy (the
// target already holds a PARTIAL copy of the dataset), merged reads
// must still be byte-equal to the oracle — the target's subset answers
// union away under the merge.
func TestMigrationReadsExactMidFlight(t *testing.T) {
	leakcheck.Check(t)
	f := buildMigFleet(t, 61)
	g := f.newMigGate(t, t.TempDir(), nil)
	og := f.oracleGate(t)
	h, oh := g.Handler(), og.Handler()

	f.tr.setDelay("shard-spare-primary", 25*time.Millisecond)
	movedDS := f.worlds[0].Corpus.Datasets[0]
	spec := MigrationSpec{ID: "m-mid", Datasets: []string{movedDS.URI.Value}, From: f.worlds[0].Name, To: "spare"}
	if _, err := g.StartMigration(spec); err != nil {
		t.Fatalf("start: %v", err)
	}
	waitMigration(t, g, "m-mid", PhaseCopy, 5*time.Second)

	for round := 0; round < 5; round++ {
		for _, uri := range f.sample {
			gc, gb := get(t, h, relatedPath(uri))
			oc, ob := get(t, oh, relatedPath(uri))
			if gc != oc || !bytes.Equal(gb, ob) {
				t.Fatalf("mid-copy divergence on %s:\n gate:   %d %s\n oracle: %d %s", uri, gc, gb, oc, ob)
			}
		}
	}
	f.tr.setDelay("shard-spare-primary", 0)
	waitMigration(t, g, "m-mid", PhaseDone, 15*time.Second)
	for _, uri := range f.sample {
		_, gb := get(t, h, relatedPath(uri))
		_, ob := get(t, oh, relatedPath(uri))
		if !bytes.Equal(gb, ob) {
			t.Fatalf("post-migration divergence on %s", uri)
		}
	}
}

var _ = url.QueryEscape // keep the import when relatedPath moves
