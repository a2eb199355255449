package gate

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rdfcube/internal/leakcheck"
)

// TestValidateShardMapRejections pins the structural gate on maps:
// every malformed shape is refused with a message naming the problem.
func TestValidateShardMapRejections(t *testing.T) {
	ok := ShardMap{Epoch: 1, Shards: []ShardConfig{
		{Name: "a", Primary: "http://a", Datasets: []string{"ds1"}},
		{Name: "b", Primary: "http://b", Datasets: []string{"ds2"}},
	}}
	if err := ValidateShardMap(ok); err != nil {
		t.Fatalf("valid map rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*ShardMap)
		want string
	}{
		{"negative epoch", func(m *ShardMap) { m.Epoch = -1 }, "negative"},
		{"no shards", func(m *ShardMap) { m.Shards = nil }, "no shards"},
		{"empty name", func(m *ShardMap) { m.Shards[0].Name = "" }, "empty name"},
		{"duplicate name", func(m *ShardMap) { m.Shards[1].Name = "a" }, "duplicate"},
		{"no primary", func(m *ShardMap) { m.Shards[0].Primary = "" }, "no primary"},
		{"overlapping ownership", func(m *ShardMap) { m.Shards[1].Datasets = []string{"ds1"} }, "owned by both"},
	}
	for _, tc := range cases {
		m := copyMap(ok)
		tc.mut(&m)
		err := ValidateShardMap(m)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

// TestValidateMigrationsRejections pins the spec checks: unknown
// shards, unowned datasets, duplicate IDs, and self-migrations.
func TestValidateMigrationsRejections(t *testing.T) {
	m := ShardMap{Epoch: 1, Shards: []ShardConfig{
		{Name: "a", Primary: "http://a", Datasets: []string{"ds1", "ds2"}},
		{Name: "b", Primary: "http://b"},
	}}
	good := MigrationSpec{ID: "m1", Datasets: []string{"ds1"}, From: "a", To: "b"}
	if err := ValidateMigrations(m, []MigrationSpec{good}); err != nil {
		t.Fatalf("valid migration rejected: %v", err)
	}
	cases := []struct {
		name string
		migs []MigrationSpec
		want string
	}{
		{"empty id", []MigrationSpec{{Datasets: []string{"ds1"}, From: "a", To: "b"}}, "empty id"},
		{"path id", []MigrationSpec{{ID: "../m", Datasets: []string{"ds1"}, From: "a", To: "b"}}, "not a plain name"},
		{"duplicate id", []MigrationSpec{good, good}, "duplicate migration id"},
		{"unknown source", []MigrationSpec{{ID: "m", Datasets: []string{"ds1"}, From: "x", To: "b"}}, "unknown source shard"},
		{"unknown target", []MigrationSpec{{ID: "m", Datasets: []string{"ds1"}, From: "a", To: "x"}}, "unknown target shard"},
		{"self migration", []MigrationSpec{{ID: "m", Datasets: []string{"ds1"}, From: "a", To: "a"}}, "source and target"},
		{"no datasets", []MigrationSpec{{ID: "m", From: "a", To: "b"}}, "no datasets"},
		{"unowned dataset", []MigrationSpec{{ID: "m", Datasets: []string{"ds9"}, From: "a", To: "b"}}, "not owned by source"},
	}
	for _, tc := range cases {
		err := ValidateMigrations(m, tc.migs)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

// TestShardMapFileBareArrayCompat: the PR 8 map-file format (a bare
// shard array) must keep loading — as epoch 0 with no migrations. The
// parsing lives in cubegate, but the epoch-0 semantics are pinned here:
// a gate built from such a file accepts any epoch >= 1 as a successor.
func TestShardMapFileBareArrayCompat(t *testing.T) {
	var f ShardMapFile
	if err := json.Unmarshal([]byte(`{"shards":[{"name":"a","primary":"http://a"}]}`), &f); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	m := f.Map()
	if m.Epoch != 0 || len(m.Shards) != 1 {
		t.Fatalf("file map = %+v", m)
	}
	if err := ValidateTransition(m, ShardMap{Epoch: 1, Shards: m.Shards}); err != nil {
		t.Fatalf("epoch 0 -> 1: %v", err)
	}
}

// TestSwapMapLive proves the tentpole's first half: an installed gate
// re-routes through a swapped map atomically, refuses regressions and
// unbumped changes, treats the identical re-delivery as a no-op, and
// notifies the OnMapChange hook exactly once per real change.
func TestSwapMapLive(t *testing.T) {
	leakcheck.Check(t)
	f := buildFleet(t, 21)

	var observed []int64
	g := f.newGate(t, func(c *Config) {
		c.Epoch = 3
		c.OnMapChange = func(m ShardMap) { observed = append(observed, m.Epoch) }
	})
	if g.Epoch() != 3 {
		t.Fatalf("initial epoch = %d, want 3", g.Epoch())
	}

	// Move one dataset g0 -> g1 at epoch 4: inserts must re-route.
	moved := f.worlds[0].Datasets[0]
	next := g.CurrentMap()
	next.Epoch = 4
	for i := range next.Shards {
		kept := next.Shards[i].Datasets[:0]
		for _, ds := range next.Shards[i].Datasets {
			if ds != moved {
				kept = append(kept, ds)
			}
		}
		next.Shards[i].Datasets = kept
		if next.Shards[i].Name == f.worlds[1].Name {
			next.Shards[i].Datasets = append(next.Shards[i].Datasets, moved)
		}
	}
	if err := g.SwapMap(next); err != nil {
		t.Fatalf("SwapMap: %v", err)
	}
	if got := g.table().byDataset[moved].name; got != f.worlds[1].Name {
		t.Fatalf("dataset %s routed to %s after swap, want %s", moved, got, f.worlds[1].Name)
	}

	// Identical map, same epoch: silent no-op, hook NOT notified.
	if err := g.SwapMap(next); err != nil {
		t.Fatalf("identical re-swap: %v", err)
	}
	// Changed map, same epoch: refused.
	changed := copyMap(next)
	changed.Shards[0].Primary = "http://elsewhere"
	if err := g.SwapMap(changed); err == nil || !strings.Contains(err.Error(), "epoch bump") {
		t.Fatalf("unbumped change: err = %v", err)
	}
	// Epoch regression: refused.
	old := copyMap(next)
	old.Epoch = 2
	if err := g.SwapMap(old); err == nil {
		t.Fatal("epoch regression accepted")
	}
	if len(observed) != 1 || observed[0] != 4 {
		t.Fatalf("OnMapChange observed epochs %v, want [4]", observed)
	}
}

// TestSwapMapPreservesBreakerState: target objects are pooled by
// (shard, role, url), so a map swap must NOT amnesty a tripped breaker.
func TestSwapMapPreservesBreakerState(t *testing.T) {
	leakcheck.Check(t)
	f := buildFleet(t, 23)
	g := f.newGate(t, nil)
	h := g.Handler()

	dead := f.shards[0]
	f.tr.setFail("shard-"+dead.Name+"-primary", true)
	f.tr.setFail("shard-"+dead.Name+"-replica", true)
	for i := 0; i < 8; i++ {
		get(t, h, relatedPath(f.obsURIs[0]))
	}
	before := f.shardByName(g, dead.Name).primary
	if state, _ := before.breaker.Snapshot(); state != "open" {
		t.Fatalf("breaker after failures: %s, want open", state)
	}

	next := g.CurrentMap()
	next.Epoch = g.Epoch() + 1
	if err := g.SwapMap(next); err != nil {
		t.Fatalf("SwapMap: %v", err)
	}
	after := f.shardByName(g, dead.Name).primary
	if after != before {
		t.Fatal("swap rebuilt the target object; breaker state was lost")
	}
	if state, _ := after.breaker.Snapshot(); state != "open" {
		t.Fatalf("breaker after swap: %s, want still open", state)
	}
}

// TestShardMapEndpoints drives the admin HTTP surface: GET echoes the
// installed map, POST validates (400), enforces epochs (409), installs
// (200), and /readyz + /v1/stats expose the epoch.
func TestShardMapEndpoints(t *testing.T) {
	leakcheck.Check(t)
	f := buildFleet(t, 27)
	g := f.newGate(t, func(c *Config) { c.Epoch = 7 })
	h := g.Handler()

	code, body := get(t, h, "/v1/shardmap")
	var m ShardMap
	if code != http.StatusOK || json.Unmarshal(body, &m) != nil || m.Epoch != 7 {
		t.Fatalf("GET /v1/shardmap: %d %s", code, body)
	}

	post := func(v any) (int, []byte) {
		b, _ := json.Marshal(v)
		req := httptest.NewRequest("POST", "/v1/shardmap", bytes.NewReader(b))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code, rec.Body.Bytes()
	}

	// Overlapping ownership: structural 400.
	bad := copyMap(m)
	bad.Epoch = 8
	bad.Shards[1].Datasets = append(bad.Shards[1].Datasets, bad.Shards[0].Datasets[0])
	if code, body := post(bad); code != http.StatusBadRequest {
		t.Fatalf("overlapping map: %d %s", code, body)
	}
	// Epoch regression: 409.
	older := copyMap(m)
	older.Epoch = 6
	if code, body := post(older); code != http.StatusConflict {
		t.Fatalf("stale map: %d %s", code, body)
	}
	// Valid successor: 200, epoch visible in stats and readyz.
	next := copyMap(m)
	next.Epoch = 8
	if code, body := post(next); code != http.StatusOK {
		t.Fatalf("valid swap: %d %s", code, body)
	}
	var stats struct {
		Epoch int64 `json:"epoch"`
	}
	_, sb := get(t, h, "/v1/stats")
	if json.Unmarshal(sb, &stats) != nil || stats.Epoch != 8 {
		t.Fatalf("stats after swap: %s", sb)
	}
	_, rb := get(t, h, "/readyz")
	var ready map[string]any
	if json.Unmarshal(rb, &ready) != nil || ready["epoch"] != float64(8) {
		t.Fatalf("readyz after swap: %s", rb)
	}
}

// TestSwapMapMidTraffic hammers reads while maps swap in a loop: every
// response must be a complete, well-formed answer (the table pointer
// swap may never tear a fan-out) and the final epoch must win.
func TestSwapMapMidTraffic(t *testing.T) {
	leakcheck.Check(t)
	f := buildFleet(t, 31)
	g := f.newGate(t, nil)
	h := g.Handler()

	stop := make(chan struct{})
	errs := make(chan string, 1)
	go func() {
		defer close(errs)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, uri := range f.obsURIs[:4] {
				code, body := get(t, h, relatedPath(uri))
				var resp relatedResponse
				if code != http.StatusOK || json.Unmarshal(body, &resp) != nil || resp.Partial {
					select {
					case errs <- string(body):
					default:
					}
					return
				}
			}
		}
	}()

	epoch := g.Epoch()
	for i := 0; i < 40; i++ {
		next := g.CurrentMap()
		next.Epoch = epoch + int64(i) + 1
		if err := g.SwapMap(next); err != nil {
			t.Fatalf("swap %d: %v", i, err)
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	if msg, bad := <-errs; bad {
		t.Fatalf("read failed during swaps: %s", msg)
	}
	if g.Epoch() != epoch+40 {
		t.Fatalf("final epoch %d, want %d", g.Epoch(), epoch+40)
	}
}
