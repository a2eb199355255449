package serve

import (
	"encoding/json"
	"net/http"
	"net/url"
	"testing"

	"rdfcube/internal/faultfs"
	"rdfcube/internal/gen"
	"rdfcube/internal/qb"
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

// obsInsert is the POST /v1/observations body that re-creates o of ds
// from its lexical values, as a migration relays it.
func obsInsert(ds *qb.Dataset, o *qb.Observation) []byte {
	dims, measures := map[string]string{}, map[string]string{}
	for i, d := range ds.Schema.Dimensions {
		if !o.DimValues[i].IsZero() {
			dims[d.Value] = o.DimValues[i].Value
		}
	}
	for i, m := range ds.Schema.Measures {
		if !o.MeasureValues[i].IsZero() {
			measures[m.Value] = o.MeasureValues[i].Value
		}
	}
	body, _ := json.Marshal(map[string]any{"dataset": ds.URI.Value, "uri": o.URI.Value, "dimensions": dims, "measures": measures})
	return body
}

func digestOf(t *testing.T, h http.Handler, uri string) DatasetDigest {
	t.Helper()
	rec := fetch(t, h, "GET", "/v1/datasets?uri="+url.QueryEscape(uri), nil)
	var d DatasetDigest
	if err := json.Unmarshal(rec.Body.Bytes(), &d); rec.Code != http.StatusOK || err != nil || d.URI != uri {
		t.Fatalf("digest of %s: %d %s", uri, rec.Code, rec.Body)
	}
	return d
}

func mustInsert(t *testing.T, h http.Handler, body []byte) {
	t.Helper()
	if rec := fetch(t, h, "POST", "/v1/observations", body); rec.Code != http.StatusCreated {
		t.Fatalf("insert %s: %d %s", body, rec.Code, rec.Body)
	}
}

// TestDatasetDigest: GET /v1/datasets answers one dataset's observation
// count and digest, which depend on the observations held and not on the
// order they arrived in or the indices they got. A server computed from
// the paper corpus and one that took D3's observations one by one, in
// reverse, from schema stubs answer the same; one changed measure value
// or one more observation changes the digest; an unknown dataset is 404;
// a follower that applied its primary's log answers the primary's digest.
func TestDatasetDigest(t *testing.T) {
	corpus := gen.PaperExample()
	stubs := func() *qb.Corpus {
		c := qb.NewCorpus(corpus.Hierarchies)
		for _, ds := range corpus.Datasets {
			c.AddDataset(&qb.Dataset{URI: ds.URI, Schema: ds.Schema})
		}
		return c
	}
	var d3 *qb.Dataset
	for _, ds := range corpus.Datasets {
		if ds.URI.Value == gen.ExNS+"dataset/D3" {
			d3 = ds
		}
	}
	var bodies [][]byte
	for _, o := range d3.Observations {
		bodies = append(bodies, obsInsert(d3, o))
	}
	extra1, _ := json.Marshal(insertBody("-a"))
	extra2, _ := json.Marshal(insertBody("-b"))

	computed := serveCorpus(t, corpus).Handler()
	rebuilt := serveCorpus(t, stubs()).Handler()
	mustInsert(t, rebuilt, extra2)
	for i := len(bodies) - 1; i >= 0; i-- {
		mustInsert(t, rebuilt, bodies[i])
	}
	mustInsert(t, rebuilt, extra1)
	mustInsert(t, computed, extra1)
	mustInsert(t, computed, extra2)
	want := digestOf(t, computed, d3.URI.Value)
	if got := digestOf(t, rebuilt, d3.URI.Value); got != want || want.Observations != len(bodies)+2 || len(want.Digest) != 16 {
		t.Fatalf("rebuilt in reverse: %+v, computed: %+v (%d observations)", got, want, len(bodies)+2)
	}

	changed := serveCorpus(t, stubs()).Handler()
	for _, body := range append(append([][]byte{}, bodies[1:]...), extra1, extra2) {
		mustInsert(t, changed, body)
	}
	var first map[string]any
	json.Unmarshal(bodies[0], &first)
	first["measures"] = map[string]string{gen.MeasUnemployment.Value: "0.999"}
	body, _ := json.Marshal(first)
	mustInsert(t, changed, body)
	if got := digestOf(t, changed, d3.URI.Value); got.Observations != want.Observations || got.Digest == want.Digest {
		t.Fatalf("one changed measure value: %+v, unchanged: %+v", got, want)
	}
	extra3, _ := json.Marshal(insertBody("-c"))
	mustInsert(t, computed, extra3)
	if got := digestOf(t, computed, d3.URI.Value); got.Observations != want.Observations+1 || got.Digest == want.Digest {
		t.Fatalf("one more observation: %+v, before: %+v", got, want)
	}
	if rec := fetch(t, computed, "GET", "/v1/datasets?uri="+url.QueryEscape(gen.ExNS+"dataset/nope"), nil); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown dataset: %d %s", rec.Code, rec.Body)
	}

	base := paperSnapshotBytes(t)
	mem := faultfs.NewMemFS()
	wlog, _, err := wal.Open(mem, "cube.wal")
	if err != nil {
		t.Fatal(err)
	}
	primary, err := New(decodeSnapshot(t, base), Config{WAL: wlog})
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range [][]byte{extra1, extra2, extra3} {
		mustInsert(t, primary.Handler(), body)
	}
	wlog.Close()
	_, recs, err := wal.Open(mem, "cube.wal")
	if err != nil || len(recs) != 3 {
		t.Fatalf("reopened log: %d records, %v", len(recs), err)
	}
	follower, err := New(decodeSnapshot(t, base), Config{Follower: &FollowerState{Leader: "http://primary.invalid"}})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := follower.ApplyReplicated(recs); n != 3 || err != nil {
		t.Fatalf("applied %d of 3 records: %v", n, err)
	}
	if got, want := digestOf(t, follower.Handler(), d3.URI.Value), digestOf(t, primary.Handler(), d3.URI.Value); got != want || got.Observations != len(bodies)+3 {
		t.Fatalf("follower %+v, primary %+v", got, want)
	}
}
