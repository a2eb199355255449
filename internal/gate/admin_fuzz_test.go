package gate

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// adminMap is three shards no request reaches: g0 owns d0 and d1, g1
// owns d2, and spare owns nothing.
var adminMap = ShardMap{Epoch: 1, Shards: []ShardConfig{
	{Name: "g0", Primary: "http://g0", Datasets: []string{"http://x/d0", "http://x/d1"}},
	{Name: "g1", Primary: "http://g1", Datasets: []string{"http://x/d2"}},
	{Name: "spare", Primary: "http://spare"},
}}

// adminGate is a gate on adminMap that keeps migration state files in
// stateDir ("" keeps none). A migration it starts fails its copy at
// once, so an abort always finds it before cutover.
func adminGate(t *testing.T, stateDir string) *Gate {
	t.Helper()
	g, err := New(Config{
		Shards:            adminMap.Shards,
		Epoch:             adminMap.Epoch,
		Transport:         newHostTransport(),
		ProbeInterval:     -1,
		Migrator:          MigratorOptions{Interval: time.Millisecond, PhaseTimeout: 50 * time.Millisecond},
		MigrationStateDir: stateDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func postRaw(h http.Handler, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// adminBodies are a valid body for each admin route on adminGate: the
// map at the next epoch, and a migration of d1 onto the spare.
func adminBodies() (mapBody, specBody []byte) {
	next := copyMap(adminMap)
	next.Epoch++
	mapBody, _ = json.Marshal(next)
	specBody, _ = json.Marshal(MigrationSpec{ID: "m1", Datasets: []string{"http://x/d1"}, From: "g0", To: "spare"})
	return mapBody, specBody
}

func withSuffix(body []byte, suffix string) []byte {
	return append(append([]byte(nil), body...), suffix...)
}

// nestedStateDir makes a migration state directory one level inside a
// fresh temporary directory and returns both.
func nestedStateDir(t *testing.T) (root, stateDir string) {
	t.Helper()
	root = t.TempDir()
	stateDir = filepath.Join(root, "state")
	if err := os.Mkdir(stateDir, 0o755); err != nil {
		t.Fatal(err)
	}
	return root, stateDir
}

// onlyStateDir fails the test when anything but the state directory
// appeared in root: a migration ID wrote a file outside it.
func onlyStateDir(t *testing.T, root string) {
	t.Helper()
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "state" {
			t.Fatalf("%q appeared beside the migration state directory", e.Name())
		}
	}
}

// TestMigrationIDCannotEscapeStateDir: a migration ID names its state
// file, so one that is not a plain name answers 400 before any file is
// read or written, and nothing appears outside the state directory.
func TestMigrationIDCannotEscapeStateDir(t *testing.T) {
	root, stateDir := nestedStateDir(t)
	g := adminGate(t, stateDir)
	defer g.Close()
	for _, id := range []string{"../escaped", "a/../../escaped", ".hidden", "a/b", "a\\b", string(bytes.Repeat([]byte("m"), 129))} {
		body, _ := json.Marshal(MigrationSpec{ID: id, Datasets: []string{"http://x/d1"}, From: "g0", To: "spare"})
		if code, rb := postRaw(g.Handler(), "/v1/migrations", body); code != http.StatusBadRequest || len(g.Migrations()) != 0 {
			t.Fatalf("id %q: %d %s, %d migrations; want 400 and none", id, code, rb, len(g.Migrations()))
		}
	}
	onlyStateDir(t, root)
	if entries, _ := os.ReadDir(stateDir); len(entries) != 0 {
		t.Fatalf("a refused migration left %d state files", len(entries))
	}
}

// TestAdminBodiesRefuseTrailingBytes: a shard map or a migration spec
// followed by anything but whitespace answers 400 and changes nothing,
// as a shard's write bodies do; the same body with trailing whitespace is
// taken.
func TestAdminBodiesRefuseTrailingBytes(t *testing.T) {
	g := adminGate(t, "")
	defer g.Close()
	h := g.Handler()
	mapBody, specBody := adminBodies()
	for _, suffix := range []string{" garbage", `{"epoch":9}`, "]"} {
		if code, rb := postRaw(h, "/v1/shardmap", withSuffix(mapBody, suffix)); code != http.StatusBadRequest || g.Epoch() != 1 {
			t.Fatalf("shard map + %q: %d %s, epoch %d; want 400 and epoch 1", suffix, code, rb, g.Epoch())
		}
		if code, rb := postRaw(h, "/v1/migrations", withSuffix(specBody, suffix)); code != http.StatusBadRequest || len(g.Migrations()) != 0 {
			t.Fatalf("migration spec + %q: %d %s, %d migrations; want 400 and none", suffix, code, rb, len(g.Migrations()))
		}
	}
	if code, rb := postRaw(h, "/v1/shardmap", withSuffix(mapBody, " \n")); code != http.StatusOK || g.Epoch() != 2 {
		t.Fatalf("shard map + whitespace: %d %s, epoch %d", code, rb, g.Epoch())
	}
	if code, rb := postRaw(h, "/v1/migrations", withSuffix(specBody, "\n")); code != http.StatusAccepted {
		t.Fatalf("migration spec + whitespace: %d %s", code, rb)
	}
	if err := g.AbortMigration("m1"); err != nil {
		t.Fatal(err)
	}
}

// FuzzShardMapBody posts arbitrary bytes to POST /v1/shardmap. The answer
// is 200, 400, 404, 409 or 413, never a 5xx or a panic. After a 200 the
// installed map is valid and its epoch advanced, or the body was the
// installed map (the same-epoch no-op); after a refusal the map is the
// one before.
func FuzzShardMapBody(f *testing.F) {
	mapBody, _ := adminBodies()
	f.Add(mapBody)
	f.Add(withSuffix(mapBody, " garbage"))
	f.Add(withSuffix(mapBody, string(mapBody)))
	f.Add([]byte(`{"epoch":1,"shards":[{"name":"g0","primary":"http://g0","datasets":["http://x/d0","http://x/d1"]},` +
		`{"name":"g1","primary":"http://g1","datasets":["http://x/d2"]},{"name":"spare","primary":"http://spare"}]}`))
	f.Add([]byte(`{"epoch":0,"shards":[{"name":"g0","primary":"http://g0"}]}`))
	f.Add([]byte(`{"epoch":5,"shards":[{"name":"a","primary":"http://a","datasets":["d"]},{"name":"b","primary":"http://b","datasets":["d"]}]}`))
	f.Add([]byte(`{"epoch":-1,"shards":[]}`))
	f.Add([]byte(`{"epoch":3,"shards":[{"name":"","primary":""}],"bogus":1}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, body []byte) {
		g := adminGate(t, "")
		defer g.Close()
		before := g.CurrentMap()
		code, rb := postRaw(g.Handler(), "/v1/shardmap", body)
		after := g.CurrentMap()
		switch code {
		case http.StatusOK:
			if err := ValidateShardMap(after); err != nil {
				t.Fatalf("installed an invalid map: %v", err)
			}
			if after.Epoch <= before.Epoch && !sameMap(before, after) {
				t.Fatalf("map changed at epoch %d -> %d", before.Epoch, after.Epoch)
			}
		case http.StatusBadRequest, http.StatusNotFound, http.StatusConflict, http.StatusRequestEntityTooLarge:
			if !sameMap(before, after) {
				t.Fatalf("refused body (%d %s) changed the map", code, rb)
			}
		default:
			t.Fatalf("status %d: %s", code, rb)
		}
	})
}

// FuzzMigrationBody posts arbitrary bytes to POST /v1/migrations. The
// answer is 202, 400, 404, 409 or 413, never a 5xx or a panic; only a 202
// starts a migration, and it is aborted before the input's run returns,
// so no runner outlives its input. The gate keeps its state files one
// level inside a temporary directory, and nothing appears beside them.
func FuzzMigrationBody(f *testing.F) {
	_, specBody := adminBodies()
	f.Add(specBody)
	f.Add(withSuffix(specBody, " garbage"))
	f.Add(withSuffix(specBody, string(specBody)))
	f.Add([]byte(`{"id":"m2","datasets":["http://x/d0","http://x/d1"],"from":"g0","to":"g1"}`))
	f.Add([]byte(`{"id":"m3","datasets":["http://x/d2"],"from":"g0","to":"spare"}`))
	f.Add([]byte(`{"id":"m4","datasets":["http://x/d0"],"from":"g0","to":"g0"}`))
	f.Add([]byte(`{"id":"","datasets":[],"from":"","to":""}`))
	f.Add([]byte(`{"id":"m5","datasets":["http://x/d0"],"from":"g0","to":"nowhere","bogus":true}`))
	f.Add([]byte(`{"id":"../escaped","datasets":["http://x/d1"],"from":"g0","to":"spare"}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[`))

	f.Fuzz(func(t *testing.T, body []byte) {
		root, stateDir := nestedStateDir(t)
		g := adminGate(t, stateDir)
		defer g.Close()
		code, rb := postRaw(g.Handler(), "/v1/migrations", body)
		switch code {
		case http.StatusAccepted, http.StatusBadRequest, http.StatusNotFound, http.StatusConflict, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("status %d: %s", code, rb)
		}
		migs := g.Migrations()
		if started := len(migs) > 0; started != (code == http.StatusAccepted) || len(migs) > 1 {
			t.Fatalf("status %d left %d migrations", code, len(migs))
		}
		for _, st := range migs {
			if err := g.AbortMigration(st.Spec.ID); err != nil {
				t.Fatalf("abort %q: %v", st.Spec.ID, err)
			}
			if st := migState(t, g, st.Spec.ID); st.Phase != PhaseAborted {
				t.Fatalf("migration %q in phase %s after abort", st.Spec.ID, st.Phase)
			}
		}
		onlyStateDir(t, root)
	})
}
