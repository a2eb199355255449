package serve

import (
	"encoding/json"
	"net/http"
	"testing"

	"rdfcube/internal/faultfs"
	"rdfcube/internal/gen"
	"rdfcube/internal/obsv"
	"rdfcube/internal/wal"
	"rdfcube/internal/wire"
)

// servedCounts is the part of /v1/stats a replay must reproduce.
type servedCounts struct {
	Observations  int `json:"observations"`
	Full          int `json:"full"`
	Partial       int `json:"partial"`
	Complementary int `json:"complementary"`
}

func statsCounts(t *testing.T, h http.Handler) servedCounts {
	t.Helper()
	rec := fetch(t, h, "GET", "/v1/stats", nil)
	var c servedCounts
	if err := json.Unmarshal(rec.Body.Bytes(), &c); rec.Code != http.StatusOK || err != nil {
		t.Fatalf("/v1/stats: status %d, %v: %s", rec.Code, err, rec.Body)
	}
	return c
}

// FuzzInsertBody sends arbitrary bytes as a POST /v1/observations body to
// a server that logs to a MemFS WAL. The answer is 201, 400, 409 or 413 —
// never a 500 — and no handler panics. After a 201, replaying the WAL onto
// a fresh server from the same snapshot serves the same counts: the
// promise ValidateObservation makes, that every record that reaches the
// log applies on replay.
func FuzzInsertBody(f *testing.F) {
	snap := paperSnapshotBytes(f)
	mustJSON := func(v any) []byte {
		data, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	valid := mustJSON(insertBody("-fuzz"))
	f.Add(valid)
	f.Add(append(append([]byte(nil), valid...), "garbage"...))
	f.Add(append(append([]byte(nil), valid...), " \n"...))
	withField := func(key string, v any) []byte {
		body := insertBody("-fuzz")
		body[key] = v
		return mustJSON(body)
	}
	f.Add(withField("bogus", 1))
	f.Add(withField("dataset", "http://nope/"))
	f.Add(withField("uri", gen.ExNS+"obs/o31")) // already served
	f.Add(withField("dimensions", map[string]string{"http://nope/dim": gen.GeoAthens.Value}))
	for _, h := range wire.HostileStrings {
		f.Add(withField("uri", h))
		f.Add(withField("dimensions", map[string]string{gen.DimRefArea.Value: h}))
		f.Add(withField("measures", map[string]string{gen.MeasUnemployment.Value: h}))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		m := faultfs.NewMemFS()
		wlog, _, err := wal.Open(m, "cube.wal")
		if err != nil {
			t.Fatal(err)
		}
		col := obsv.NewCollector()
		srv, err := New(decodeSnapshot(t, snap), Config{WAL: wlog, Recorder: col})
		if err != nil {
			t.Fatal(err)
		}
		h := srv.Handler()
		rec := fetch(t, h, "POST", "/v1/observations", body)
		switch rec.Code {
		case http.StatusCreated, http.StatusBadRequest, http.StatusConflict, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
		if n := col.Snapshot()[CtrPanics]; n != 0 {
			t.Fatalf("%d handler panics for body %q", n, body)
		}
		if rec.Code != http.StatusCreated {
			return
		}
		want := statsCounts(t, h)
		if err := wlog.Close(); err != nil {
			t.Fatal(err)
		}
		wlog, recs, err := wal.Open(m, "cube.wal")
		if err != nil {
			t.Fatal(err)
		}
		defer wlog.Close()
		replayed, err := New(decodeSnapshot(t, snap), Config{WAL: wlog})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := replayed.Replay(recs); err != nil {
			t.Fatalf("replaying the insert of %q: %v", body, err)
		}
		if got := statsCounts(t, replayed.Handler()); got != want {
			t.Fatalf("body %q: replay serves %+v, the server that took the insert served %+v", body, got, want)
		}
	})
}
