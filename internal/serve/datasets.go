// Dataset registration: POST /v1/datasets admits a new, empty dataset
// into a running server — the primitive live shard rebalancing needs,
// because a migration target must learn the migrating dataset's schema
// before the source's observations can be replayed into it.
//
// Durability is the interesting part. The WAL format has exactly one
// record kind (an insert); an unknown kind decodes as a torn tail and
// is truncated on replay, so a registration cannot ride the log. The
// snapshot is the only durable carrier, which forces this order:
//
//  1. register the dataset in the in-memory space (under the write
//     lock) — it is NOT yet insertable,
//  2. run one synchronous checkpoint (Config.CheckpointNow): the
//     snapshot now contains the empty dataset,
//  3. publish the dataset to dsIdx — only now do inserts route to it.
//
// A crash before step 2 loses an unacknowledged registration (fine); a
// crash after it replays a snapshot that already carries the dataset,
// and because dataset indices are append-only, every WAL record written
// after step 3 still points at the right schema. Registrations are
// serialized by regMu across the whole cycle; the endpoint is
// idempotent (re-POSTing an identical schema answers 200).
package serve

import (
	"encoding/json"
	"net/http"
	"time"

	"rdfcube/internal/qb"
	"rdfcube/internal/rdf"
)

// CtrDatasetsCreated counts datasets registered at runtime.
const CtrDatasetsCreated = "serve.datasets.created"

// datasetRequest is the POST /v1/datasets body.
type datasetRequest struct {
	URI        string   `json:"uri"`
	Dimensions []string `json:"dimensions"`
	Measures   []string `json:"measures"`
}

func (s *Server) handleCreateDataset(w http.ResponseWriter, r *http.Request) {
	if s.follower != nil {
		s.rejectWrite(w, r)
		return
	}
	if s.dsCreateOff {
		s.error(w, r, http.StatusNotImplemented, "dataset creation is disabled on this server")
		return
	}
	if s.wlog != nil && s.ckptNow == nil {
		s.error(w, r, http.StatusNotImplemented,
			"dataset creation needs a checkpoint hook on WAL-backed servers (registration cannot ride the WAL)")
		return
	}
	if s.Degraded() {
		s.error(w, r, http.StatusServiceUnavailable, "degraded read-only mode: dataset creation refused")
		return
	}
	var req datasetRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxInsertBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.error(w, r, http.StatusBadRequest, "bad dataset body: %v", err)
		return
	}
	if req.URI == "" {
		s.error(w, r, http.StatusBadRequest, "missing dataset uri")
		return
	}
	dims := make([]rdf.Term, 0, len(req.Dimensions))
	for _, d := range req.Dimensions {
		dims = append(dims, rdf.NewIRI(d))
	}
	measures := make([]rdf.Term, 0, len(req.Measures))
	for _, m := range req.Measures {
		measures = append(measures, rdf.NewIRI(m))
	}
	schema := qb.NewSchema(dims, measures)

	// regMu serializes whole cycles; it is never taken under mu.
	s.regMu.Lock()
	defer s.regMu.Unlock()

	s.mu.Lock()
	if di, ok := s.dsIdx[req.URI]; ok {
		same := schemaEqual(s.inc.S.Corpus.Datasets[di].Schema, schema)
		s.mu.Unlock()
		if !same {
			s.error(w, r, http.StatusConflict, "dataset %q already exists with a different schema", req.URI)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"dataset": req.URI, "index": di, "created": false})
		return
	}
	// Registered but unpublished: a previous attempt's checkpoint failed
	// after the in-memory registration. Reuse it instead of re-registering.
	di := -1
	for i, d := range s.inc.S.Corpus.Datasets {
		if d.URI.Value == req.URI {
			di = i
			break
		}
	}
	if di < 0 {
		ds := &qb.Dataset{URI: rdf.NewIRI(req.URI), Schema: schema}
		if err := s.inc.S.RegisterDataset(ds); err != nil {
			s.mu.Unlock()
			s.error(w, r, http.StatusBadRequest, "%v", err)
			return
		}
		di = len(s.inc.S.Corpus.Datasets) - 1
	} else if !schemaEqual(s.inc.S.Corpus.Datasets[di].Schema, schema) {
		s.mu.Unlock()
		s.error(w, r, http.StatusConflict, "dataset %q already registered with a different schema", req.URI)
		return
	}
	s.mu.Unlock()

	// Durability point: the checkpoint carries the empty dataset to disk
	// before any insert can target it.
	if s.ckptNow != nil {
		if err := s.ckptNow(); err != nil {
			s.log("dataset registration checkpoint for %s failed: %v", req.URI, err)
			s.setRetryAfter(w, 2*time.Second)
			s.error(w, r, http.StatusServiceUnavailable, "registration checkpoint failed: %v; retry", err)
			return
		}
	}

	s.mu.Lock()
	s.dsIdx[req.URI] = di
	s.mu.Unlock()
	s.count(CtrDatasetsCreated, 1)
	s.log("dataset %s registered at index %d (%d dims, %d measures)", req.URI, di, len(dims), len(measures))
	writeJSON(w, http.StatusCreated, map[string]any{"dataset": req.URI, "index": di, "created": true})
}

// schemaEqual compares the sorted dimension and measure lists of two
// schemas (attributes are not part of the registration surface).
func schemaEqual(a, b *qb.Schema) bool {
	if len(a.Dimensions) != len(b.Dimensions) || len(a.Measures) != len(b.Measures) {
		return false
	}
	for i := range a.Dimensions {
		if a.Dimensions[i] != b.Dimensions[i] {
			return false
		}
	}
	for i := range a.Measures {
		if a.Measures[i] != b.Measures[i] {
			return false
		}
	}
	return true
}
