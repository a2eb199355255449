// Dataset registration: POST /v1/datasets admits a new, empty dataset
// into a running server — the primitive live shard rebalancing needs,
// because a migration target must learn the migrating dataset's schema
// before the source's observations can be replayed into it.
//
// A registration is a write like an insert, and takes the insert's path
// inside one write-locked critical section:
//
//  1. validate (core.Space.ValidateDataset, no mutation),
//  2. log: append a registration record (WAL kind 2) with fsync,
//  3. apply: register the dataset in the space and publish it to dsIdx.
//
// A crash before step 2 completes loses an unacknowledged registration;
// after it, Replay (at restart) and ApplyReplicated (on a follower)
// redo the registration from the log at the same corpus index, so every
// later insert record still points at the right schema. The endpoint is
// idempotent: re-POSTing an identical schema answers 200.
//
// GET /v1/datasets?uri=… reads one dataset back as a count and a digest
// of its observations: what a migration compares on its source and its
// target before it moves the dataset's ownership.
package serve

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"net/http"
	"sort"

	"rdfcube/internal/front"
	"rdfcube/internal/qb"
	"rdfcube/internal/rdf"
	"rdfcube/internal/wal"
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
		s.toLeader(w, "read-only replica: writes go to the leader")
		return
	}
	var req datasetRequest
	if err := DecodeWriteBody(w, r, &req); err != nil {
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
	ds := &qb.Dataset{URI: rdf.NewIRI(req.URI), Schema: qb.NewSchema(dims, measures)}

	s.send(w, s.createDatasetReply(r, ds))
}

// createDatasetReply validates, logs and registers ds under the write
// lock, and returns the answer.
func (s *Server) createDatasetReply(r *http.Request, ds *qb.Dataset) reply {
	s.mu.Lock()
	defer s.mu.Unlock()
	// As for inserts: a client that hung up during the lock wait must not
	// reach the WAL.
	if rep, done := s.abandoned(r); done {
		return rep
	}
	if di, ok := s.dsIdx[ds.URI.Value]; ok {
		if !schemaEqual(s.inc.S.Corpus.Datasets[di].Schema, ds.Schema) {
			return errReply(r, http.StatusConflict, "dataset %q already exists with a different schema", ds.URI.Value)
		}
		return reply{http.StatusOK, map[string]any{"dataset": ds.URI.Value, "index": di, "created": false}}
	}
	if s.Degraded() {
		return errReply(r, http.StatusServiceUnavailable, "degraded read-only mode: write-ahead log failed; dataset creation refused")
	}
	if err := s.inc.S.ValidateDataset(ds); err != nil {
		return errReply(r, http.StatusBadRequest, "%v", err)
	}
	di := len(s.inc.S.Corpus.Datasets)
	rec := wal.Record{Register: true, Dataset: di, URI: ds.URI, DimValues: ds.Schema.Dimensions, MeasureValues: ds.Schema.Measures}
	if err := s.appendLocked(front.FromContext(r.Context()), rec); err != nil {
		return errReply(r, http.StatusServiceUnavailable, "durable log append failed; entering read-only mode")
	}
	if err := s.registerLocked(ds); err != nil {
		// Unreachable after ValidateDataset; the record is already durable,
		// so surface it loudly rather than pretend it never happened.
		s.log("dataset %s: validated registration failed to apply: %v", ds.URI.Value, err)
		return errReply(r, http.StatusInternalServerError, "%v", err)
	}
	s.rec.Count(CtrDatasetsCreated, 1)
	s.log("dataset %s registered at index %d (%d dims, %d measures)", ds.URI.Value, di, len(ds.Schema.Dimensions), len(ds.Schema.Measures))
	return reply{http.StatusCreated, map[string]any{"dataset": ds.URI.Value, "index": di, "created": true}}
}

// registerLocked adds ds to the space and publishes it to dsIdx, so
// inserts route to it. Callers hold the write lock.
func (s *Server) registerLocked(ds *qb.Dataset) error {
	if err := s.inc.S.RegisterDataset(ds); err != nil {
		return err
	}
	s.dsIdx[ds.URI.Value] = len(s.inc.S.Corpus.Datasets) - 1
	return nil
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

// DatasetDigest is the GET /v1/datasets answer. Two servers answer equal
// digests for a dataset when they hold the same observations of it, in
// any order and at any indices.
type DatasetDigest struct {
	URI          string `json:"uri"`
	Observations int    `json:"observations"`
	Digest       string `json:"digest"`
}

func (s *Server) handleDatasetDigest(w http.ResponseWriter, r *http.Request) {
	s.send(w, s.datasetDigestReply(r))
}

func (s *Server) datasetDigestReply(r *http.Request) reply {
	uri := r.URL.Query().Get("uri")
	s.mu.RLock()
	defer s.mu.RUnlock()
	di, ok := s.dsIdx[uri]
	if !ok {
		return errReply(r, http.StatusNotFound, "unknown dataset %q", uri)
	}
	n, sum := digestDataset(s.inc.S.Obs, s.inc.S.Corpus.Datasets[di])
	return reply{http.StatusOK, DatasetDigest{URI: uri, Observations: n, Digest: fmt.Sprintf("%016x", sum)}}
}

// digestDataset counts the served observations of ds and sums a 64-bit
// FNV-1a hash of each one's canonical record: its URI, then its
// (dimension, code) pairs, then its (measure, value) pairs, each list
// sorted by IRI and without zero terms, every field and list
// length-prefixed. The sum wraps, and makes the digest independent of the
// order the observations arrived in. Values are lexical: a migration
// relays lexical values and the target types them again. It walks the
// space's rows, not ds.Observations: the rows are what this server serves.
func digestDataset(obs []*qb.Observation, ds *qb.Dataset) (n int, sum uint64) {
	dims, measures := iriOrder(ds.Schema.Dimensions), iriOrder(ds.Schema.Measures)
	h := fnv.New64a()
	var rec []byte
	for _, o := range obs {
		if o.Dataset != ds {
			continue
		}
		rec = appendField(rec[:0], o.URI.Value)
		rec = appendTerms(rec, ds.Schema.Dimensions, dims, o.DimValues)
		rec = appendTerms(rec, ds.Schema.Measures, measures, o.MeasureValues)
		h.Reset()
		h.Write(rec)
		sum += h.Sum64()
		n++
	}
	return n, sum
}

// iriOrder returns the positions of keys sorted by IRI.
func iriOrder(keys []rdf.Term) []int {
	order := make([]int, len(keys))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return keys[order[a]].Value < keys[order[b]].Value })
	return order
}

// appendTerms appends the count of vals' non-zero terms, then each one's
// (key, value) pair in key order; vals is aligned with keys.
func appendTerms(rec []byte, keys []rdf.Term, order []int, vals []rdf.Term) []byte {
	n := 0
	for _, v := range vals {
		if !v.IsZero() {
			n++
		}
	}
	rec = binary.AppendUvarint(rec, uint64(n))
	for _, k := range order {
		if !vals[k].IsZero() {
			rec = appendField(appendField(rec, keys[k].Value), vals[k].Value)
		}
	}
	return rec
}

func appendField(rec []byte, f string) []byte {
	return append(binary.AppendUvarint(rec, uint64(len(f))), f...)
}
