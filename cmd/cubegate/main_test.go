package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"rdfcube/internal/core"
	"rdfcube/internal/gen"
	"rdfcube/internal/serve"
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

func startShard(t *testing.T, w *gen.ShardWorld) string {
	t.Helper()
	s, res, err := core.ComputeCorpusCtx(context.Background(), w.Corpus, core.AlgorithmCubeMasking, core.Options{})
	if err != nil {
		t.Fatalf("compute: %v", err)
	}
	srv, err := serve.New(snapshot.New(s, res, nil), serve.Config{})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	httpSrv, addr, err := serve.Start("127.0.0.1:0", srv)
	if err != nil {
		t.Fatalf("serve.Start: %v", err)
	}
	t.Cleanup(func() {
		srv.BeginShutdown()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(ctx)
	})
	return "http://" + addr
}

func writeShardMap(t *testing.T, worlds []*gen.ShardWorld, urls []string) string {
	t.Helper()
	type entry struct {
		Name     string   `json:"name"`
		Primary  string   `json:"primary"`
		Datasets []string `json:"datasets"`
	}
	var m struct {
		Shards []entry `json:"shards"`
	}
	for i, w := range worlds {
		m.Shards = append(m.Shards, entry{Name: w.Name, Primary: urls[i], Datasets: w.Datasets})
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "shards.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestGateEndToEnd boots three real shard daemons over a relationship-
// closed corpus, points cubegate at them via a shard-map file, and
// drives reads, a write, and the observability surface over real TCP.
func TestGateEndToEnd(t *testing.T) {
	worlds, _ := gen.ShardWorlds(gen.ShardWorldsConfig{Seed: 3, ObsPerDataset: 20})
	var urls []string
	for _, w := range worlds {
		urls = append(urls, startShard(t, w))
	}
	mapPath := writeShardMap(t, worlds, urls)

	// -validate path first: summary and clean exit, no serving.
	var out, errOut bytes.Buffer
	if code := run(context.Background(), []string{"-shard-map", mapPath, "-validate"}, &out, &errOut); code != 0 {
		t.Fatalf("validate: exit %d\nstderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "shard map ok: 3 shards") {
		t.Fatalf("validate stdout: %q", out.String())
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	logs := &syncBuffer{}
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{
			"-shard-map", mapPath,
			"-addr", "127.0.0.1:0",
			"-probe-interval", "50ms",
		}, io.Discard, logs)
	}()

	addrRe := regexp.MustCompile(`gate serving on ([0-9.:]+)`)
	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if m := addrRe.FindStringSubmatch(logs.String()); m != nil {
			base = "http://" + m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gate never started:\n%s", logs.String())
		}
		time.Sleep(20 * time.Millisecond)
	}

	client := &http.Client{Timeout: 5 * time.Second}
	getJSON := func(path string, into any) int {
		t.Helper()
		resp, err := client.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if into != nil {
			if err := json.Unmarshal(body, into); err != nil {
				t.Fatalf("GET %s: undecodable body %s: %v", path, body, err)
			}
		}
		return resp.StatusCode
	}

	var ready struct {
		Status string `json:"status"`
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		if code := getJSON("/readyz", &ready); code == http.StatusOK && ready.Status == "ready" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gate never became ready: %+v\n%s", ready, logs.String())
		}
		time.Sleep(20 * time.Millisecond)
	}

	uri := worlds[0].Corpus.Datasets[0].Observations[0].URI.Value
	var rel struct {
		URI     string `json:"uri"`
		Partial bool   `json:"partial"`
	}
	if code := getJSON("/v1/related?obs="+uri, &rel); code != http.StatusOK {
		t.Fatalf("related: status %d", code)
	}
	if rel.URI != uri || rel.Partial {
		t.Fatalf("related: %+v", rel)
	}

	// A write routes to the owning shard: insert a twin of an existing
	// observation into its own dataset.
	src := worlds[1].Corpus.Datasets[0]
	o := src.Observations[0]
	dims := map[string]string{}
	for k, d := range src.Schema.Dimensions {
		dims[d.Value] = o.DimValues[k].Value
	}
	ins, _ := json.Marshal(map[string]any{
		"dataset":    src.URI.Value,
		"uri":        "http://example.org/cubegate-e2e/obs/1",
		"dimensions": dims,
		"measures":   map[string]string{src.Schema.Measures[0].Value: "99"},
	})
	resp, err := client.Post(base+"/v1/observations", "application/json", bytes.NewReader(ins))
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	insBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("insert: status %d body %s", resp.StatusCode, insBody)
	}

	var stats struct {
		Role            string `json:"role"`
		AvailableShards int    `json:"availableShards"`
	}
	if code := getJSON("/v1/stats", &stats); code != http.StatusOK || stats.Role != "gate" || stats.AvailableShards != 3 {
		t.Fatalf("stats: %+v", stats)
	}
	if code := getJSON("/metrics.json", nil); code != http.StatusOK {
		t.Fatalf("metrics.json: status %d", code)
	}

	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("gate exit %d\n%s", code, logs.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("gate never exited\n%s", logs.String())
	}
	if !strings.Contains(logs.String(), "bye") {
		t.Fatalf("no clean shutdown line:\n%s", logs.String())
	}
}

// TestBadFlags pins the usage-error exits.
func TestBadFlags(t *testing.T) {
	cases := [][]string{
		{"-nope"},
		{},
		{"-shard-map", filepath.Join(t.TempDir(), "missing.json")},
	}
	for _, args := range cases {
		var out, errOut bytes.Buffer
		if code := run(context.Background(), args, &out, &errOut); code != 2 {
			t.Fatalf("args %v: exit %d, want 2\nstderr: %s", args, code, errOut.String())
		}
	}

	// A syntactically valid map that fails gate validation (dup name).
	path := filepath.Join(t.TempDir(), "dup.json")
	os.WriteFile(path, []byte(`[{"name":"a","primary":"http://x"},{"name":"a","primary":"http://y"}]`), 0o644)
	var out, errOut bytes.Buffer
	if code := run(context.Background(), []string{"-shard-map", path, "-validate"}, &out, &errOut); code != 2 {
		t.Fatalf("dup map: exit %d\nstderr: %s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "duplicate shard name") {
		t.Fatalf("dup map stderr: %q", errOut.String())
	}
}

// TestLoadShardMapShapes accepts both the wrapped and bare JSON shapes;
// the bare PR 8 format loads as epoch 0 with no migrations.
func TestLoadShardMapShapes(t *testing.T) {
	dir := t.TempDir()
	bare := filepath.Join(dir, "bare.json")
	os.WriteFile(bare, []byte(`[{"name":"a","primary":"http://x","datasets":["d1"]}]`), 0o644)
	wrapped := filepath.Join(dir, "wrapped.json")
	os.WriteFile(wrapped, []byte(`{"shards":[{"name":"a","primary":"http://x","datasets":["d1"]}]}`), 0o644)
	for _, p := range []string{bare, wrapped} {
		f, err := loadShardMap(p)
		if err != nil || len(f.Shards) != 1 || f.Shards[0].Name != "a" || f.Epoch != 0 || len(f.Migrations) != 0 {
			t.Fatalf("%s: %v %+v", p, err, f)
		}
	}
	full := filepath.Join(dir, "full.json")
	os.WriteFile(full, []byte(`{
		"epoch": 4,
		"shards": [{"name":"a","primary":"http://x","datasets":["d1"]},{"name":"b","primary":"http://y"}],
		"migrations": [{"id":"m1","datasets":["d1"],"from":"a","to":"b"}]
	}`), 0o644)
	f, err := loadShardMap(full)
	if err != nil || f.Epoch != 4 || len(f.Shards) != 2 || len(f.Migrations) != 1 || f.Migrations[0].ID != "m1" {
		t.Fatalf("full map: %v %+v", err, f)
	}
	junk := filepath.Join(dir, "junk.json")
	os.WriteFile(junk, []byte(`"not a map"`), 0o644)
	if _, err := loadShardMap(junk); err == nil {
		t.Fatalf("junk map accepted")
	}
}

// TestValidateEpochAndMigrations pins -validate's rebalance checks:
// overlapping ownership, epoch regressions (a negative epoch), and
// migrations referencing unknown shards or unowned datasets are all
// refused with a message naming the problem; a well-formed file with an
// epoch and a migration validates with both counted in the summary.
func TestValidateEpochAndMigrations(t *testing.T) {
	write := func(name, content string) string {
		p := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	rejects := []struct {
		name, content, want string
	}{
		{"overlapping ownership", `{
			"epoch": 1,
			"shards": [{"name":"a","primary":"http://x","datasets":["d1"]},
			           {"name":"b","primary":"http://y","datasets":["d1"]}]
		}`, "owned by both"},
		{"negative epoch", `{
			"epoch": -3,
			"shards": [{"name":"a","primary":"http://x","datasets":["d1"]}]
		}`, "negative"},
		{"migration unknown target", `{
			"epoch": 1,
			"shards": [{"name":"a","primary":"http://x","datasets":["d1"]}],
			"migrations": [{"id":"m1","datasets":["d1"],"from":"a","to":"ghost"}]
		}`, "unknown target shard"},
		{"migration unknown source", `{
			"epoch": 1,
			"shards": [{"name":"a","primary":"http://x","datasets":["d1"]}],
			"migrations": [{"id":"m1","datasets":["d1"],"from":"ghost","to":"a"}]
		}`, "unknown source shard"},
		{"migration unowned dataset", `{
			"epoch": 1,
			"shards": [{"name":"a","primary":"http://x","datasets":["d1"]},
			           {"name":"b","primary":"http://y"}],
			"migrations": [{"id":"m1","datasets":["d9"],"from":"a","to":"b"}]
		}`, "not owned by source"},
	}
	for _, tc := range rejects {
		path := write("map.json", tc.content)
		var out, errOut bytes.Buffer
		if code := run(context.Background(), []string{"-shard-map", path, "-validate"}, &out, &errOut); code != 2 {
			t.Fatalf("%s: exit %d, want 2\nstderr: %s", tc.name, code, errOut.String())
		}
		if !strings.Contains(errOut.String(), tc.want) {
			t.Fatalf("%s: stderr %q, want containing %q", tc.name, errOut.String(), tc.want)
		}
	}

	good := write("good.json", `{
		"epoch": 3,
		"shards": [{"name":"a","primary":"http://x","datasets":["d1","d2"]},
		           {"name":"b","primary":"http://y"}],
		"migrations": [{"id":"m1","datasets":["d2"],"from":"a","to":"b"}]
	}`)
	var out, errOut bytes.Buffer
	if code := run(context.Background(), []string{"-shard-map", good, "-validate"}, &out, &errOut); code != 0 {
		t.Fatalf("good map: exit %d\nstderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "epoch 3") || !strings.Contains(out.String(), "1 migrations") {
		t.Fatalf("good map summary: %q", out.String())
	}
}

// TestMapFileWatchReload boots the daemon with -watch-map, rewrites the
// map file with an epoch bump moving one dataset between shards, and
// watches the swap land on /v1/shardmap — the tentpole's file-driven
// reload path over real TCP. A stale rewrite (no epoch bump) must be
// refused and leave the installed epoch alone.
func TestMapFileWatchReload(t *testing.T) {
	worlds, _ := gen.ShardWorlds(gen.ShardWorldsConfig{Seed: 9, ObsPerDataset: 10})
	var urls []string
	for _, w := range worlds {
		urls = append(urls, startShard(t, w))
	}
	mapPath := writeShardMap(t, worlds, urls)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	logs := &syncBuffer{}
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{
			"-shard-map", mapPath,
			"-addr", "127.0.0.1:0",
			"-probe-interval", "-1ms",
			"-watch-map", "20ms",
		}, io.Discard, logs)
	}()

	addrRe := regexp.MustCompile(`gate serving on ([0-9.:]+)`)
	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if m := addrRe.FindStringSubmatch(logs.String()); m != nil {
			base = "http://" + m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gate never started:\n%s", logs.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	client := &http.Client{Timeout: 5 * time.Second}
	getMap := func() (int64, map[string]string) {
		resp, err := client.Get(base + "/v1/shardmap")
		if err != nil {
			t.Fatalf("GET /v1/shardmap: %v", err)
		}
		defer resp.Body.Close()
		var m struct {
			Epoch  int64 `json:"epoch"`
			Shards []struct {
				Name     string   `json:"name"`
				Datasets []string `json:"datasets"`
			} `json:"shards"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatalf("decode shardmap: %v", err)
		}
		owners := map[string]string{}
		for _, sc := range m.Shards {
			for _, ds := range sc.Datasets {
				owners[ds] = sc.Name
			}
		}
		return m.Epoch, owners
	}

	epoch, owners := getMap()
	if epoch != 0 {
		t.Fatalf("boot epoch %d, want 0 (bare-compat file)", epoch)
	}
	moved := worlds[0].Datasets[0]
	if owners[moved] != worlds[0].Name {
		t.Fatalf("dataset %s owned by %s at boot", moved, owners[moved])
	}

	// Rewrite the file: epoch 1, the dataset moves to the second shard.
	type entry struct {
		Name     string   `json:"name"`
		Primary  string   `json:"primary"`
		Datasets []string `json:"datasets"`
	}
	build := func(epoch int64, movedTo string) []byte {
		var f struct {
			Epoch  int64   `json:"epoch"`
			Shards []entry `json:"shards"`
		}
		f.Epoch = epoch
		for i, w := range worlds {
			e := entry{Name: w.Name, Primary: urls[i]}
			for _, ds := range w.Datasets {
				if ds != moved {
					e.Datasets = append(e.Datasets, ds)
				}
			}
			if w.Name == movedTo {
				e.Datasets = append(e.Datasets, moved)
			}
			f.Shards = append(f.Shards, e)
		}
		data, err := json.MarshalIndent(f, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if err := os.WriteFile(mapPath, build(1, worlds[1].Name), 0o644); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		epoch, owners = getMap()
		if epoch == 1 && owners[moved] == worlds[1].Name {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("watched map change never landed: epoch %d, owner %s\n%s", epoch, owners[moved], logs.String())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// A changed map WITHOUT an epoch bump is refused: the file watcher
	// logs the refusal and the installed map stays at epoch 1.
	if err := os.WriteFile(mapPath, build(1, worlds[2].Name), 0o644); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(10 * time.Second)
	for !strings.Contains(logs.String(), "refused") {
		if time.Now().After(deadline) {
			t.Fatalf("stale map rewrite never refused:\n%s", logs.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if epoch, owners = getMap(); epoch != 1 || owners[moved] != worlds[1].Name {
		t.Fatalf("stale rewrite moved the map: epoch %d, owner %s", epoch, owners[moved])
	}

	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("gate exit %d\n%s", code, logs.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("gate never exited\n%s", logs.String())
	}
}
