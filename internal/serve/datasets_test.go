package serve

import (
	"net/http"
	"testing"

	"rdfcube/internal/faultfs"
	"rdfcube/internal/gen"
	"rdfcube/internal/rdf"
	"rdfcube/internal/wal"
)

func datasetBody(uri string) map[string]any {
	return map[string]any{
		"uri":        uri,
		"dimensions": []string{gen.DimRefArea.Value, gen.DimRefPeriod.Value},
		"measures":   []string{gen.ExNS + "measure/migrated"},
	}
}

// TestCreateDatasetLifecycle: register → 201, idempotent re-register →
// 200, conflicting schema → 409, and the new dataset accepts inserts
// with its previously-unknown measure.
func TestCreateDatasetLifecycle(t *testing.T) {
	_, ts := newPaperServer(t, Config{})
	uri := gen.ExNS + "dataset/D-migrated"

	var created struct {
		Dataset string `json:"dataset"`
		Index   int    `json:"index"`
		Created bool   `json:"created"`
	}
	if code := postJSON(t, ts.URL+"/v1/datasets", datasetBody(uri), &created); code != http.StatusCreated {
		t.Fatalf("create: status %d (%+v)", code, created)
	}
	if !created.Created || created.Dataset != uri {
		t.Fatalf("create response: %+v", created)
	}

	var again struct {
		Created bool `json:"created"`
		Index   int  `json:"index"`
	}
	if code := postJSON(t, ts.URL+"/v1/datasets", datasetBody(uri), &again); code != http.StatusOK {
		t.Fatalf("idempotent re-create: status %d", code)
	}
	if again.Created || again.Index != created.Index {
		t.Fatalf("re-create response: %+v", again)
	}

	conflict := datasetBody(uri)
	conflict["measures"] = []string{gen.ExNS + "measure/other"}
	var errResp map[string]any
	if code := postJSON(t, ts.URL+"/v1/datasets", conflict, &errResp); code != http.StatusConflict {
		t.Fatalf("schema conflict: status %d, want 409", code)
	}

	// Unknown dimension is refused: the dimension universe is fixed.
	bad := datasetBody(gen.ExNS + "dataset/D-baddim")
	bad["dimensions"] = []string{gen.ExNS + "dim/not-in-space"}
	if code := postJSON(t, ts.URL+"/v1/datasets", bad, &errResp); code != http.StatusBadRequest {
		t.Fatalf("unknown dimension: status %d, want 400", code)
	}

	// The registered dataset accepts inserts carrying its new measure.
	ins := map[string]any{
		"dataset": uri,
		"uri":     gen.ExNS + "obs/migrated1",
		"dimensions": map[string]string{
			gen.DimRefArea.Value:   gen.GeoAthens.Value,
			gen.DimRefPeriod.Value: gen.TimeJan.Value,
		},
		"measures": map[string]string{gen.ExNS + "measure/migrated": "7"},
	}
	var insResp map[string]any
	if code := postJSON(t, ts.URL+"/v1/observations", ins, &insResp); code != http.StatusCreated {
		t.Fatalf("insert into registered dataset: status %d (%v)", code, insResp)
	}
}

// TestCreateDatasetWritesNoSnapshot: a WAL-backed server registers a
// dataset with one log append, no checkpoint — it answers 201 and the
// disk holds the WAL and nothing else.
func TestCreateDatasetWritesNoSnapshot(t *testing.T) {
	m := faultfs.NewMemFS()
	srv, ts, wlog := newDurableServer(t, m, paperSnapshotBytes(t), Config{})
	var resp map[string]any
	if code := postJSON(t, ts.URL+"/v1/datasets", datasetBody(gen.ExNS+"dataset/D-nohook"), &resp); code != http.StatusCreated {
		t.Fatalf("status %d, want 201 (%v)", code, resp)
	}
	names, err := m.ReadDirNames(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "cube.wal" {
		t.Fatalf("registration left files %v, want only the WAL", names)
	}
	if wlog.RecordBytes() == 0 {
		t.Fatal("registration did not reach the WAL")
	}
	if srv.Degraded() {
		t.Fatal("registration degraded the server")
	}
}

// TestCreateDatasetDurableAcrossRestart: the registration rides the WAL.
// Register, insert into the new dataset, cut the power, and restart from
// the snapshot taken BEFORE the registration: WAL replay alone must bring
// back both the dataset and the observation.
func TestCreateDatasetDurableAcrossRestart(t *testing.T) {
	m := faultfs.NewMemFS()
	before := paperSnapshotBytes(t)
	_, ts, _ := newDurableServer(t, m, before, Config{})

	uri := gen.ExNS + "dataset/D-durable"
	var created map[string]any
	if code := postJSON(t, ts.URL+"/v1/datasets", datasetBody(uri), &created); code != http.StatusCreated {
		t.Fatalf("create: status %d (%v)", code, created)
	}
	obsURI := gen.ExNS + "obs/durable1"
	ins := map[string]any{
		"dataset": uri,
		"uri":     obsURI,
		"dimensions": map[string]string{
			gen.DimRefArea.Value:   gen.GeoAthens.Value,
			gen.DimRefPeriod.Value: gen.TimeJan.Value,
		},
		"measures": map[string]string{gen.ExNS + "measure/migrated": "9"},
	}
	var insResp map[string]any
	if code := postJSON(t, ts.URL+"/v1/observations", ins, &insResp); code != http.StatusCreated {
		t.Fatalf("insert: status %d (%v)", code, insResp)
	}

	crashed := m.Clone()
	crashed.Crash()
	srv2, ts2, _ := newDurableServer(t, crashed, before, Config{})
	srv2.mu.RLock()
	_, dsOK := srv2.dsIdx[uri]
	_, obsOK := srv2.uriIdx[obsURI]
	srv2.mu.RUnlock()
	if !dsOK || !obsOK {
		t.Fatalf("after restart: dataset present %v, observation present %v; want both", dsOK, obsOK)
	}
	// The restarted server knows the registration: re-POSTing it is the
	// idempotent 200.
	if code := postJSON(t, ts2.URL+"/v1/datasets", datasetBody(uri), &created); code != http.StatusOK {
		t.Fatalf("re-create after restart: status %d, want 200", code)
	}
}

// TestCreateDatasetWALFailureDegrades: a registration whose WAL append
// fails is never acknowledged — 503 — the server degrades to read-only
// as for a failed insert, and the space does not hold the dataset.
func TestCreateDatasetWALFailureDegrades(t *testing.T) {
	m := faultfs.NewMemFS()
	srv, ts, _ := newDurableServer(t, m, paperSnapshotBytes(t), Config{})
	datasets := len(srv.inc.S.Corpus.Datasets)

	m.Inject(faultfs.Fault{Op: faultfs.OpSync, N: 1})
	uri := gen.ExNS + "dataset/D-flaky"
	var resp map[string]any
	if code := postJSON(t, ts.URL+"/v1/datasets", datasetBody(uri), &resp); code != http.StatusServiceUnavailable {
		t.Fatalf("failed append: status %d, want 503 (%v)", code, resp)
	}
	if !srv.Degraded() {
		t.Fatal("a failed registration append did not degrade the server")
	}
	srv.mu.RLock()
	_, published := srv.dsIdx[uri]
	n := len(srv.inc.S.Corpus.Datasets)
	srv.mu.RUnlock()
	if published || n != datasets {
		t.Fatalf("after a failed append: dataset published %v, %d datasets (want %d)", published, n, datasets)
	}
	if code := postJSON(t, ts.URL+"/v1/datasets", datasetBody(uri), &resp); code != http.StatusServiceUnavailable {
		t.Fatalf("registration on a degraded server: status %d, want 503", code)
	}
}

// TestReplayRegistrationRecords: a logged registration (WAL kind 2)
// applies at the next corpus index, is skipped when the space already
// holds it there with the same schema (a checkpoint landed after it and
// the truncation was skipped), and is an error — never a panic — when it
// disagrees with the space.
func TestReplayRegistrationRecords(t *testing.T) {
	snap := paperSnapshotBytes(t)
	reg := func(uri string, index int, dims ...rdf.Term) wal.Record {
		return wal.Record{
			Register:      true,
			Dataset:       index,
			URI:           rdf.NewIRI(uri),
			DimValues:     dims,
			MeasureValues: []rdf.Term{rdf.NewIRI(gen.ExNS + "measure/migrated")},
		}
	}
	area, period := gen.DimRefArea, gen.DimRefPeriod
	srv, err := New(decodeSnapshot(t, snap), Config{})
	if err != nil {
		t.Fatal(err)
	}
	next := len(srv.inc.S.Corpus.Datasets)
	uri := gen.ExNS + "dataset/D-replayed"
	rows := []struct {
		name    string
		rec     wal.Record
		applied int
		fails   bool
	}{
		{"applies at the next index", reg(uri, next, period, area), 1, false},
		{"held at the same index with the same schema is skipped", reg(uri, next, area, period), 0, false},
		{"wrong index", reg(gen.ExNS+"dataset/D-elsewhere", next+5, area), 0, true},
		{"another schema for a known URI", reg(uri, next, area), 0, true},
		{"another URI at a held index", reg(gen.ExNS+"dataset/D-usurper", next, area, period), 0, true},
		{"dimension outside the space", reg(gen.ExNS+"dataset/D-baddim", next+1, rdf.NewIRI(gen.ExNS+"dim/not-in-space")), 0, true},
	}
	for _, row := range rows {
		n, err := srv.Replay([]wal.Record{row.rec})
		if (err != nil) != row.fails || n != row.applied {
			t.Fatalf("%s: applied %d, err %v; want applied %d, error %v", row.name, n, err, row.applied, row.fails)
		}
	}
	srv.mu.RLock()
	di, ok := srv.dsIdx[uri]
	total := len(srv.inc.S.Corpus.Datasets)
	srv.mu.RUnlock()
	if !ok || di != next || total != next+1 {
		t.Fatalf("dataset at %d (published %v), %d datasets; want index %d of %d", di, ok, total, next, next+1)
	}
}
