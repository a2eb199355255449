package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"rdfcube/internal/obsv"
	"rdfcube/internal/qb"
	"rdfcube/internal/rdf"
	"rdfcube/internal/wal"
)

// maxInsertBody bounds a POST /v1/observations body.
const maxInsertBody = 1 << 20

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// error writes a JSON error body carrying the request's trace ID, so a
// 4xx/5xx response is correlatable with the /debug/traces ring, the
// slow-query log and the panic log line. Handlers use this instead of
// bare writeError whenever a request is in scope.
func (s *Server) error(w http.ResponseWriter, r *http.Request, status int, format string, args ...any) {
	payload := map[string]string{"error": fmt.Sprintf(format, args...)}
	if id := TraceID(r.Context()); id != "" {
		payload["traceId"] = id
	}
	writeJSON(w, status, payload)
}

// statusClientClosedRequest is nginx's convention for a request whose
// client went away before the response was written.
const statusClientClosedRequest = 499

// cancelStatus maps a request context error to the abandonment status:
// 504 when the handler overran the deadline, 499 when the client hung up.
func cancelStatus(err error) int {
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout
	}
	return statusClientClosedRequest
}

// ctxAbort checks the request context and, when it is already done,
// counts and reports the abandonment. Handlers call it after any wait
// (lock acquisition, per-observation fan-out batches) so work for a
// vanished client stops early — in particular, an insert whose client
// hung up before the durable log append never reaches the WAL.
func (s *Server) ctxAbort(w http.ResponseWriter, r *http.Request) bool {
	err := r.Context().Err()
	if err == nil {
		return false
	}
	s.count(CtrCanceled, 1)
	s.error(w, r, cancelStatus(err), "request abandoned: %v", err)
	return true
}

// resolveObs resolves the ?obs= parameter (index or full URI) to an
// observation index. Callers must hold at least the read lock.
func (s *Server) resolveObs(r *http.Request) (int, error) {
	q := r.URL.Query().Get("obs")
	if q == "" {
		return 0, fmt.Errorf("missing ?obs= parameter (observation index or URI)")
	}
	if i, err := strconv.Atoi(q); err == nil {
		if i < 0 || i >= s.inc.S.N() {
			return 0, fmt.Errorf("observation index %d out of range [0, %d)", i, s.inc.S.N())
		}
		return i, nil
	}
	if i, ok := s.uriIdx[q]; ok {
		return i, nil
	}
	return 0, fmt.Errorf("unknown observation %q", q)
}

// state names the server's lifecycle phase for the health endpoints:
// "loading" until the state is adopted, "degraded" while in read-only
// mode (WAL failure), "stale" on a follower whose replication lag
// exceeded its staleness bound, "ready" otherwise.
func (s *Server) state() string {
	switch {
	case !s.ready.Load():
		return "loading"
	case s.Degraded():
		return "degraded"
	case s.follower != nil && s.follower.Stale():
		return "stale"
	default:
		return "ready"
	}
}

// replicationFields describes the follower's replication posture for
// /readyz and /v1/stats.
func (s *Server) replicationFields() map[string]any {
	f := s.follower
	stale := f.Staleness()
	fields := map[string]any{
		"role":             "follower",
		"leader":           f.Leader,
		"connected":        f.Connected(),
		"walOffset":        f.Offset(),
		"lagRecords":       f.LagRecords(),
		"stalenessSeconds": stale.Seconds(),
		"bootstraps":       f.Bootstraps(),
	}
	if f.MaxStaleness > 0 {
		fields["maxStalenessSeconds"] = f.MaxStaleness.Seconds()
	}
	return fields
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Liveness: the process is up. The state field lets an operator see
	// the phase without a second probe.
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "state": s.state()})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	st := s.state()
	if s.follower != nil {
		// A follower's readiness carries its replication posture: load
		// balancers route on the status code, operators read the lag.
		resp := s.replicationFields()
		resp["status"] = st
		switch st {
		case "loading":
			writeJSON(w, http.StatusServiceUnavailable, resp)
		case "stale":
			// Out of the read rotation: answers would exceed the staleness
			// contract. The replica keeps serving /v1 reads for clients that
			// accept stale data; only readiness flips.
			resp["detail"] = "replication lag exceeds -max-staleness"
			writeJSON(w, http.StatusServiceUnavailable, resp)
		default:
			writeJSON(w, http.StatusOK, resp)
		}
		return
	}
	switch st {
	case "loading":
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": st, "error": "state not loaded"})
	case "degraded":
		// Reads still work, so the server stays in rotation — but the
		// status tells operators writes are being refused with 503.
		writeJSON(w, http.StatusOK, map[string]string{"status": st, "detail": "read-only: write-ahead log failed"})
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": st})
	}
}

func (s *Server) handleContains(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.ctxAbort(w, r) {
		return
	}
	i, err := s.resolveObs(r)
	if err != nil {
		s.error(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	bp, b := getBody()
	defer func() { putBody(bp, b) }()
	b = append(b, `{"containedBy":`...)
	b = s.appendRefs(b, s.index.ContainedBy(i))
	b = append(b, `,"contains":`...)
	b = s.appendRefs(b, s.index.Contains(i))
	b = appendObsMember(b, i)
	b = s.appendEnd(b, i)
	writeBody(w, b)
}

func (s *Server) handleComplements(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.ctxAbort(w, r) {
		return
	}
	i, err := s.resolveObs(r)
	if err != nil {
		s.error(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	bp, b := getBody()
	defer func() { putBody(bp, b) }()
	b = append(b, `{"complements":`...)
	b = s.appendRefs(b, s.index.Complements(i))
	b = appendObsMember(b, i)
	b = s.appendEnd(b, i)
	writeBody(w, b)
}

func (s *Server) handleRelated(w http.ResponseWriter, r *http.Request) {
	tr := traceFrom(r.Context())
	endLock := tr.span("lock.rwait")
	s.mu.RLock()
	endLock()
	defer s.mu.RUnlock()
	if s.ctxAbort(w, r) {
		return
	}
	endResolve := tr.span("resolve")
	i, err := s.resolveObs(r)
	endResolve()
	if err != nil {
		s.error(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	// The fan-out renders five neighbor lists, in the sorted key order
	// encoding/json gave the body; check the context between them so a
	// hung-up client stops the work mid-way. Each batch gets its own span
	// so a slow /v1/related trace names the list that ate the budget.
	bp, b := getBody()
	defer func() { putBody(bp, b) }()
	endCompl := tr.span("fanout.complements")
	b = append(b, `{"complements":`...)
	b = s.appendRefs(b, s.index.Complements(i))
	endCompl()
	if s.ctxAbort(w, r) {
		return
	}
	endFull := tr.span("fanout.full")
	b = append(b, `,"containedBy":`...)
	b = s.appendRefs(b, s.index.ContainedBy(i))
	b = append(b, `,"contains":`...)
	b = s.appendRefs(b, s.index.Contains(i))
	endFull()
	if s.ctxAbort(w, r) {
		return
	}
	b = appendObsMember(b, i)
	endPartial := tr.span("fanout.partial")
	b = append(b, `,"partiallyContainedBy":`...)
	b = s.appendPartialRefs(b, i, s.index.PartiallyContainedBy(i), false)
	b = append(b, `,"partiallyContains":`...)
	b = s.appendPartialRefs(b, i, s.index.PartiallyContains(i), true)
	endPartial()
	b = s.appendEnd(b, i)
	writeBody(w, b)
}

func (s *Server) handleObs(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	i, err := strconv.Atoi(r.PathValue("i"))
	if err != nil || i < 0 || i >= s.inc.S.N() {
		s.error(w, r, http.StatusNotFound, "no observation %q", r.PathValue("i"))
		return
	}
	o := s.inc.S.Obs[i]
	dims := map[string]string{}
	for k, d := range o.Dataset.Schema.Dimensions {
		dims[d.Value] = o.DimValues[k].Value
	}
	measures := map[string]string{}
	for k, m := range o.Dataset.Schema.Measures {
		measures[m.Value] = o.MeasureValues[k].Value
	}
	sig := s.inc.S.Signature(i)
	levels := make([]int, len(sig))
	for k, l := range sig {
		levels[k] = int(l)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"obs":        i,
		"uri":        o.URI.Value,
		"dataset":    o.Dataset.URI.Value,
		"dimensions": dims,
		"measures":   measures,
		"signature":  levels,
	})
}

// insertRequest is the POST /v1/observations body. Dimension values are
// code IRIs keyed by dimension IRI; omitted dimensions default to the
// code-list root (the paper's c_root convention). Measure values are
// lexical forms keyed by measure IRI.
type insertRequest struct {
	Dataset    string            `json:"dataset"`
	URI        string            `json:"uri"`
	Dimensions map[string]string `json:"dimensions"`
	Measures   map[string]string `json:"measures"`
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	if s.follower != nil {
		s.rejectWrite(w, r)
		return
	}
	if s.Degraded() {
		s.error(w, r, http.StatusServiceUnavailable, "degraded read-only mode: write-ahead log failed; inserts refused")
		return
	}
	var req insertRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxInsertBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.error(w, r, http.StatusBadRequest, "bad insert body: %v", err)
		return
	}
	if req.URI == "" {
		s.error(w, r, http.StatusBadRequest, "missing observation uri")
		return
	}

	tr := traceFrom(r.Context())
	endLock := tr.span("lock.wait")
	s.mu.Lock()
	endLock()
	defer s.mu.Unlock()

	// The write-lock wait can be long; if the client hung up during it,
	// stop before anything durable happens — an abandoned insert must
	// never reach the WAL, or replay would resurrect a write the client
	// never saw acknowledged.
	if s.ctxAbort(w, r) {
		return
	}
	// Re-check under the lock: another insert may have degraded us while
	// we waited.
	if s.Degraded() {
		s.error(w, r, http.StatusServiceUnavailable, "degraded read-only mode: write-ahead log failed; inserts refused")
		return
	}

	di, ok := s.dsIdx[req.Dataset]
	if !ok {
		s.error(w, r, http.StatusBadRequest, "unknown dataset %q", req.Dataset)
		return
	}
	ds := s.inc.S.Corpus.Datasets[di]
	if _, dup := s.uriIdx[req.URI]; dup {
		s.error(w, r, http.StatusConflict, "observation %q already exists", req.URI)
		return
	}

	o := &qb.Observation{
		URI:           rdf.NewIRI(req.URI),
		Dataset:       ds,
		DimValues:     make([]rdf.Term, len(ds.Schema.Dimensions)),
		MeasureValues: make([]rdf.Term, len(ds.Schema.Measures)),
	}
	unknown := func(kind, key string) {
		s.error(w, r, http.StatusBadRequest, "%s %q is not in the schema of %s", kind, key, req.Dataset)
	}
	for key, val := range req.Dimensions {
		k := ds.Schema.DimIndex(rdf.NewIRI(key))
		if k < 0 {
			unknown("dimension", key)
			return
		}
		o.DimValues[k] = rdf.NewIRI(val)
	}
	for key, val := range req.Measures {
		k := ds.Schema.MeasureIndex(rdf.NewIRI(key))
		if k < 0 {
			unknown("measure", key)
			return
		}
		o.MeasureValues[k] = measureLiteral(val)
	}

	// Validate BEFORE the durable log append, so every record that
	// reaches the WAL is guaranteed to apply on replay.
	endValidate := tr.span("validate")
	err := s.inc.S.ValidateObservation(o)
	endValidate()
	if err != nil {
		s.error(w, r, http.StatusBadRequest, "%v", err)
		return
	}

	// Durability point: the record hits the fsynced log before the client
	// sees 201. An append failure flips the server read-only — better to
	// refuse writes than to acknowledge ones a crash would lose.
	if s.wlog != nil {
		rec := wal.Record{
			Dataset:       di,
			URI:           o.URI,
			DimValues:     o.DimValues,
			MeasureValues: o.MeasureValues,
		}
		endWAL := tr.span("wal.append")
		walStart := time.Now()
		err := s.wlog.Append(rec)
		s.observe(HistWALAppend, time.Since(walStart).Microseconds())
		endWAL()
		if err != nil {
			s.markDegraded(fmt.Sprintf("wal append for %s: %v", req.URI, err))
			s.error(w, r, http.StatusServiceUnavailable, "durable log append failed; entering read-only mode")
			return
		}
		s.count(CtrWALAppends, 1)
		s.walSeq++
		s.notifyAppend()
	}

	f0 := len(s.inc.Res.FullSet)
	p0 := len(s.inc.Res.PartialSet)
	c0 := len(s.inc.Res.ComplSet)
	// Route the incremental kernel's counters (candidate sizes, emits)
	// into the request's span tree as well as the global recorder. Safe
	// only because the write lock excludes every other kernel user; the
	// deferred restore runs before the lock is released.
	if tr != nil {
		old := s.inc.S.Recorder()
		s.inc.S.SetRecorder(obsv.Multi(old, tr.tc))
		defer s.inc.S.SetRecorder(old)
	}
	endApply := tr.span("apply")
	err = s.applyInsertLocked(di, o)
	endApply()
	if err != nil {
		// Unreachable after ValidateObservation; if it ever fires the
		// record is already durable, so surface it loudly rather than
		// pretend the insert never happened.
		s.log("insert %s: validated observation failed to apply: %v", req.URI, err)
		s.error(w, r, http.StatusInternalServerError, "%v", err)
		return
	}
	idx := s.uriIdx[req.URI]
	s.inserts.Add(1)
	s.count(CtrInserts, 1)

	writeJSON(w, http.StatusCreated, map[string]any{
		"obs":        idx,
		"uri":        req.URI,
		"newFull":    len(s.inc.Res.FullSet) - f0,
		"newPartial": len(s.inc.Res.PartialSet) - p0,
		"newCompl":   len(s.inc.Res.ComplSet) - c0,
	})
}

// measureLiteral interprets a lexical measure value: integers and
// decimals get their XSD datatype, anything else stays a plain literal.
func measureLiteral(v string) rdf.Term {
	if _, err := strconv.ParseInt(v, 10, 64); err == nil {
		return rdf.NewTypedLiteral(v, rdf.XSDInteger)
	}
	if _, err := strconv.ParseFloat(v, 64); err == nil {
		return rdf.NewTypedLiteral(v, rdf.XSDDecimal)
	}
	return rdf.NewLiteral(v)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	f, p, c := s.inc.Res.Counts()
	resp := map[string]any{
		"observations":  s.inc.S.N(),
		"dimensions":    s.inc.S.NumDims(),
		"datasets":      len(s.inc.S.Corpus.Datasets),
		"cubes":         s.inc.Lattice().Len(),
		"full":          f,
		"partial":       p,
		"complementary": c,
		"inserts":       s.inserts.Load(),
		"replayed":      s.replayed.Load(),
		"degraded":      s.Degraded(),
		"uptimeSeconds": time.Since(s.started).Seconds(),
	}
	if s.wlog != nil {
		// The replication position triple: followers negotiate a bootstrap
		// from the WAL size + stream + logical window, operators read lag
		// off walEnd vs a follower's walOffset.
		resp["walBytes"] = s.wlog.Size()
		resp["walStream"] = s.streamID
		resp["walStart"] = s.walBase
		resp["walEnd"] = s.walEndLocked()
		resp["walSeq"] = s.walSeq
	}
	if s.snapGen != nil {
		resp["snapshotGeneration"] = s.snapGen()
	}
	if s.follower != nil {
		resp["replication"] = s.replicationFields()
	} else {
		resp["role"] = "primary"
	}
	// Latency distribution, when the recorder keeps histograms. The old
	// serve.latency.us sum counter and .last.us gauge stay in /metrics for
	// compatibility; this is the quantile view (values in µs).
	if h, ok := s.rec.(interface {
		HistSnapshot(string) (*obsv.HistSnapshot, bool)
	}); ok {
		if snap, found := h.HistSnapshot(HistLatency); found {
			resp["latency"] = snap.Summary()
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
