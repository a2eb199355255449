package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"rdfcube/internal/front"
	"rdfcube/internal/obsv"
	"rdfcube/internal/qb"
	"rdfcube/internal/rdf"
	"rdfcube/internal/wal"
)

// maxInsertBody bounds a POST /v1/observations or /v1/datasets body.
const maxInsertBody = 1 << 20

// DecodeWriteBody decodes a write body into v: one JSON value of at most
// maxInsertBody bytes, with no unknown field and nothing but whitespace
// after it. The gate parses the same insert body with json.Unmarshal, so
// a body the gate refuses is refused here too, and it reads its own admin
// bodies (a shard map, a migration spec) through this function.
func DecodeWriteBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxInsertBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("data after the JSON value")
	}
	return nil
}

// errorBody is a JSON error payload carrying the request's trace ID, so
// a 4xx/5xx response is correlatable with the /debug/traces ring, the
// slow-query log and the panic log line.
func errorBody(r *http.Request, format string, args ...any) map[string]string {
	payload := map[string]string{"error": fmt.Sprintf(format, args...)}
	if id := front.TraceID(r.Context()); id != "" {
		payload["traceId"] = id
	}
	return payload
}

// error writes a JSON error body (errorBody). Handlers holding s.mu
// return a reply instead.
func (s *Server) error(w http.ResponseWriter, r *http.Request, status int, format string, args ...any) {
	front.WriteJSON(w, status, errorBody(r, format, args...))
}

// A reply is an answer decided under s.mu and sent after the lock is
// released. A write can block for as long as the client leaves its socket
// unread; it must block only that request's goroutine, never the lock
// every insert and, behind a waiting insert, every read needs. The
// functions that decide one (the …Reply methods, fanoutBody) release the
// lock by defer, so a panic under it unwinds it too.
type reply struct {
	status int
	body   any
}

func errReply(r *http.Request, status int, format string, args ...any) reply {
	return reply{status, errorBody(r, format, args...)}
}

func (s *Server) send(w http.ResponseWriter, rep reply) {
	s.boundWrite(w)
	front.WriteJSON(w, rep.status, rep.body)
}

// boundWrite gives the answer about to be written the request timeout,
// counted from now, to reach the client: one that leaves its socket
// unread holds its in-flight slot and its buffer that long, not for as
// long as it likes. net/http clears the deadline after each response; a
// writer with no connection beneath it (a test recorder) ignores it.
func (s *Server) boundWrite(w http.ResponseWriter) {
	_ = http.NewResponseController(w).SetWriteDeadline(time.Now().Add(s.timeout))
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

// abandoned checks the request context and, when it is already done,
// counts the abandonment and returns its answer. Handlers call it after
// any wait (lock acquisition, per-observation fan-out batches) so work
// for a vanished client stops early — in particular, an insert whose
// client hung up before the durable log append never reaches the WAL.
func (s *Server) abandoned(r *http.Request) (reply, bool) {
	err := r.Context().Err()
	if err == nil {
		return reply{}, false
	}
	s.rec.Count(CtrCanceled, 1)
	return errReply(r, cancelStatus(err), "request abandoned: %v", err), true
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
// "stale" on a follower whose replication lag exceeded its staleness
// bound, else "degraded" while in read-only mode (WAL failure), "ready"
// otherwise. Staleness wins: a degraded follower still answers reads, but
// a stale one must leave the read rotation.
// There is no loading phase: a Server exists only once New has adopted a
// state, and whatever fronts a process before that (the follower's
// handler, a daemon not yet listening) answers for it.
func (s *Server) state() string {
	switch {
	case s.follower != nil && s.follower.Stale():
		return "stale"
	case s.Degraded():
		return "degraded"
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
		"bootstraps":       s.rec.Counter(CtrFollowerBootstraps).Load(),
	}
	if f.MaxStaleness > 0 {
		fields["maxStalenessSeconds"] = f.MaxStaleness.Seconds()
	}
	return fields
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Liveness: the process is up. The state field lets an operator see
	// the phase without a second probe.
	front.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok", "state": s.state()})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	st := s.state()
	if s.follower != nil {
		// A follower's readiness carries its replication posture: load
		// balancers route on the status code, operators read the lag.
		resp := s.replicationFields()
		resp["status"] = st
		switch st {
		case "stale":
			// Out of the read rotation: answers would exceed the staleness
			// contract. The replica keeps serving /v1 reads for clients that
			// accept stale data; only readiness flips.
			resp["detail"] = "replication lag exceeds -max-staleness"
			front.WriteJSON(w, http.StatusServiceUnavailable, resp)
		default:
			front.WriteJSON(w, http.StatusOK, resp)
		}
		return
	}
	switch st {
	case "degraded":
		// Reads still work, so the server stays in rotation — but the
		// status tells operators writes are being refused with 503.
		front.WriteJSON(w, http.StatusOK, map[string]string{"status": st, "detail": "read-only: write-ahead log failed"})
	default:
		front.WriteJSON(w, http.StatusOK, map[string]string{"status": st})
	}
}

// fanout answers a fan-out route: fanoutBody renders the answer under the
// read lock, and the write comes after the lock is released (see reply).
func (s *Server) fanout(w http.ResponseWriter, r *http.Request, render func(b []byte, i int) ([]byte, error)) {
	bp, b := getBody()
	defer func() { putBody(bp, b) }()
	var rep reply
	var failed bool
	if b, rep, failed = s.fanoutBody(r, b, render); failed {
		s.send(w, rep)
		return
	}
	s.writeBody(w, b)
}

// fanoutBody resolves ?obs= and renders its answer into b under the read
// lock, or returns the error reply instead. render returns the request
// context's error when it stops early.
func (s *Server) fanoutBody(r *http.Request, b []byte, render func(b []byte, i int) ([]byte, error)) ([]byte, reply, bool) {
	tr := front.FromContext(r.Context())
	endLock := tr.Span("lock.rwait")
	s.mu.RLock()
	endLock()
	defer s.mu.RUnlock()
	if rep, done := s.abandoned(r); done {
		return b, rep, true
	}
	endResolve := tr.Span("resolve")
	i, err := s.resolveObs(r)
	endResolve()
	if err != nil {
		return b, errReply(r, http.StatusBadRequest, "%v", err), true
	}
	if b, err = render(b, i); err != nil {
		rep, _ := s.abandoned(r)
		return b, rep, true
	}
	return b, reply{}, false
}

func (s *Server) handleContains(w http.ResponseWriter, r *http.Request) {
	s.fanout(w, r, func(b []byte, i int) ([]byte, error) {
		b = append(b, `{"containedBy":`...)
		b = s.appendRefs(b, s.index.ContainedBy(i))
		b = append(b, `,"contains":`...)
		b = s.appendRefs(b, s.index.Contains(i))
		b = appendObsMember(b, i)
		return s.appendEnd(b, i), nil
	})
}

func (s *Server) handleComplements(w http.ResponseWriter, r *http.Request) {
	s.fanout(w, r, func(b []byte, i int) ([]byte, error) {
		b = append(b, `{"complements":`...)
		b = s.appendRefs(b, s.index.Complements(i))
		b = appendObsMember(b, i)
		return s.appendEnd(b, i), nil
	})
}

// handleRelated renders five neighbor lists, in the sorted key order
// encoding/json gave the body, and checks the context between them so a
// hung-up client stops the work mid-way. Each batch gets its own span so
// a slow /v1/related trace names the list that ate the budget.
func (s *Server) handleRelated(w http.ResponseWriter, r *http.Request) {
	tr := front.FromContext(r.Context())
	s.fanout(w, r, func(b []byte, i int) ([]byte, error) {
		endCompl := tr.Span("fanout.complements")
		b = append(b, `{"complements":`...)
		b = s.appendRefs(b, s.index.Complements(i))
		endCompl()
		if err := r.Context().Err(); err != nil {
			return b, err
		}
		endFull := tr.Span("fanout.full")
		b = append(b, `,"containedBy":`...)
		b = s.appendRefs(b, s.index.ContainedBy(i))
		b = append(b, `,"contains":`...)
		b = s.appendRefs(b, s.index.Contains(i))
		endFull()
		if err := r.Context().Err(); err != nil {
			return b, err
		}
		b = appendObsMember(b, i)
		endPartial := tr.Span("fanout.partial")
		b = append(b, `,"partiallyContainedBy":`...)
		b = s.appendPartialRefs(b, i, s.index.PartiallyContainedBy(i), false)
		b = append(b, `,"partiallyContains":`...)
		b = s.appendPartialRefs(b, i, s.index.PartiallyContains(i), true)
		endPartial()
		return s.appendEnd(b, i), nil
	})
}

func (s *Server) handleObs(w http.ResponseWriter, r *http.Request) {
	s.send(w, s.obsReply(r))
}

func (s *Server) obsReply(r *http.Request) reply {
	s.mu.RLock()
	defer s.mu.RUnlock()
	i, err := strconv.Atoi(r.PathValue("i"))
	if err != nil || i < 0 || i >= s.inc.S.N() {
		return errReply(r, http.StatusNotFound, "no observation %q", r.PathValue("i"))
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
	return reply{http.StatusOK, map[string]any{
		"obs":        i,
		"uri":        o.URI.Value,
		"dataset":    o.Dataset.URI.Value,
		"dimensions": dims,
		"measures":   measures,
		"signature":  levels,
	}}
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

// appendLocked is every write's durability point: it appends recs to the
// WAL with one fsync (a no-op without one), records the append latency,
// counts the frames into the replication stream and wakes /v1/wal
// long-pollers. An append failure flips the server read-only — better
// to refuse writes than to acknowledge ones a crash would lose — and is
// returned so the caller answers 503. Callers hold the write lock.
func (s *Server) appendLocked(tr *front.Tracer, recs ...wal.Record) error {
	if s.wlog == nil {
		return nil
	}
	endWAL := tr.Span("wal.append")
	walStart := time.Now()
	err := s.wlog.AppendBatch(recs)
	s.rec.Observe(HistWALAppend, time.Since(walStart).Microseconds())
	endWAL()
	if err != nil {
		s.markDegraded(fmt.Sprintf("wal append for %s: %v", recs[0].URI.Value, err))
		return err
	}
	s.rec.Count(CtrWALAppends, int64(len(recs)))
	s.walSeq += int64(len(recs))
	s.notifyAppend()
	return nil
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	if s.follower != nil {
		s.toLeader(w, "read-only replica: writes go to the leader")
		return
	}
	if s.Degraded() {
		s.error(w, r, http.StatusServiceUnavailable, "degraded read-only mode: write-ahead log failed; inserts refused")
		return
	}
	var req insertRequest
	if err := DecodeWriteBody(w, r, &req); err != nil {
		s.error(w, r, http.StatusBadRequest, "bad insert body: %v", err)
		return
	}
	if req.URI == "" {
		s.error(w, r, http.StatusBadRequest, "missing observation uri")
		return
	}

	s.send(w, s.insertReply(r, &req))
}

// insertReply validates, logs and applies one insert under the write
// lock, and returns the answer.
func (s *Server) insertReply(r *http.Request, req *insertRequest) reply {
	tr := front.FromContext(r.Context())
	endLock := tr.Span("lock.wait")
	s.mu.Lock()
	endLock()
	defer s.mu.Unlock()

	// The write-lock wait can be long; if the client hung up during it,
	// stop before anything durable happens — an abandoned insert must
	// never reach the WAL, or replay would resurrect a write the client
	// never saw acknowledged.
	if rep, done := s.abandoned(r); done {
		return rep
	}
	// Re-check under the lock: another insert may have degraded us while
	// we waited.
	if s.Degraded() {
		return errReply(r, http.StatusServiceUnavailable, "degraded read-only mode: write-ahead log failed; inserts refused")
	}

	di, ok := s.dsIdx[req.Dataset]
	if !ok {
		return errReply(r, http.StatusBadRequest, "unknown dataset %q", req.Dataset)
	}
	ds := s.inc.S.Corpus.Datasets[di]
	if _, dup := s.uriIdx[req.URI]; dup {
		return errReply(r, http.StatusConflict, "observation %q already exists", req.URI)
	}

	o := &qb.Observation{
		URI:           rdf.NewIRI(req.URI),
		Dataset:       ds,
		DimValues:     make([]rdf.Term, len(ds.Schema.Dimensions)),
		MeasureValues: make([]rdf.Term, len(ds.Schema.Measures)),
	}
	unknown := func(kind, key string) reply {
		return errReply(r, http.StatusBadRequest, "%s %q is not in the schema of %s", kind, key, req.Dataset)
	}
	for key, val := range req.Dimensions {
		k := ds.Schema.DimIndex(rdf.NewIRI(key))
		if k < 0 {
			return unknown("dimension", key)
		}
		o.DimValues[k] = rdf.NewIRI(val)
	}
	for key, val := range req.Measures {
		k := ds.Schema.MeasureIndex(rdf.NewIRI(key))
		if k < 0 {
			return unknown("measure", key)
		}
		o.MeasureValues[k] = measureLiteral(val)
	}

	// Validate BEFORE the durable log append, so every record that
	// reaches the WAL is guaranteed to apply on replay.
	endValidate := tr.Span("validate")
	err := s.inc.S.ValidateObservation(o)
	endValidate()
	if err != nil {
		return errReply(r, http.StatusBadRequest, "%v", err)
	}

	// Durability point: the record hits the fsynced log before the client
	// sees 201.
	rec := wal.Record{Dataset: di, URI: o.URI, DimValues: o.DimValues, MeasureValues: o.MeasureValues}
	if err := s.appendLocked(tr, rec); err != nil {
		return errReply(r, http.StatusServiceUnavailable, "durable log append failed; entering read-only mode")
	}

	// Route the incremental kernel's counters (candidate sizes, emits)
	// into the request's span tree as well as the global recorder. Safe
	// only because the write lock excludes every other kernel user; the
	// deferred restore runs before the lock is released.
	if tr != nil {
		old := s.inc.S.Recorder()
		s.inc.S.SetRecorder(obsv.Multi(old, tr.Spans))
		defer s.inc.S.SetRecorder(old)
	}
	endApply := tr.Span("apply")
	err = s.applyInsertLocked(di, o)
	endApply()
	if err != nil {
		// Unreachable after ValidateObservation; if it ever fires the
		// record is already durable, so surface it loudly rather than
		// pretend the insert never happened.
		s.log("insert %s: validated observation failed to apply: %v", req.URI, err)
		return errReply(r, http.StatusInternalServerError, "%v", err)
	}
	idx := s.uriIdx[req.URI]
	s.rec.Count(CtrInserts, 1)

	return reply{http.StatusCreated, map[string]any{
		"obs":        idx,
		"uri":        req.URI,
		"newFull":    len(s.inc.Res.FullSet),
		"newPartial": len(s.inc.Res.PartialSet),
		"newCompl":   len(s.inc.Res.ComplSet),
	}}
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
	s.send(w, s.statsReply())
}

func (s *Server) statsReply() reply {
	s.mu.RLock()
	defer s.mu.RUnlock()
	f, p, c := s.index.Counts()
	resp := map[string]any{
		"observations":  s.inc.S.N(),
		"dimensions":    s.inc.S.NumDims(),
		"datasets":      len(s.inc.S.Corpus.Datasets),
		"cubes":         s.inc.Lattice().Len(),
		"full":          f,
		"partial":       p,
		"complementary": c,
		"inserts":       s.rec.Counter(CtrInserts).Load(),
		"replayed":      s.rec.Counter(CtrWALReplayed).Load(),
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
	// The quantile view of the all-routes latency histogram (µs), once a
	// request has been answered.
	if snap := s.rec.Histogram(HistLatency).Snapshot(); snap.Count > 0 {
		resp["latency"] = snap.Summary()
	}
	return reply{http.StatusOK, resp}
}
