// Package serve exposes a computed relationship state as an HTTP/JSON
// query service — the shape the ROADMAP's production north star needs:
// pay the batch cubeMasking pass once (or load its snapshot), keep the
// state in memory behind a single-writer/many-readers lock, answer
// per-observation queries from a core.Index's inverted lists, and route live
// inserts through core.Incremental so new observations are queryable
// without a restart.
//
// The served state is the space, the lattice and the index, and nothing
// else: the index is the one store of S_F, S_P and S_C. Each insert's new
// pairs land in core.Incremental's Result, emptied before every insert,
// and Index.Apply folds them in; checkpoints and GET /v1/snapshot encode
// the index (snapshot.EncodeIndex).
//
// Endpoints (all JSON):
//
//	GET  /v1/contains?obs=…     full containment fan-out of one observation
//	GET  /v1/complements?obs=…  complementarity partners
//	GET  /v1/related?obs=…      everything: full both ways, partial both
//	                            ways (with degrees), complements
//	GET  /v1/obs/{i}            observation detail (URI, values, signature)
//	POST /v1/observations       live insert via core.Incremental
//	POST /v1/datasets           register a new, empty dataset
//	GET  /v1/stats              corpus, relationship and service counters
//	GET  /healthz               liveness (always 200 once the process is up)
//	GET  /readyz                readiness: 200 with status "ready" or
//	                            "degraded" (read-only); 503 "stale" on
//	                            a follower past its staleness bound
//
// The ?obs= parameter accepts either an observation index or a full
// observation URI.
//
// Operational behavior: every request's context carries a deadline
// (Config.RequestTimeout); a semaphore bounds in-flight requests and
// sheds the excess with 429 (Config.MaxInFlight); a panic in any handler
// is recovered, logged with its stack and answered with 500; handlers
// observe the request context after every wait, so abandoned requests
// stop early with 499 (client hung up) or 504 (deadline) — a request
// waiting for the write lock answers when it gets the lock, and an
// insert whose fsync outlasts the deadline still answers 201, because
// nothing answers for a handler behind its back; a handler decides its
// answer under s.mu and writes it after releasing the lock, so a client
// that leaves its socket unread blocks only its own request, and that for
// at most Config.RequestTimeout; every handler reports request counters
// and latency into the server's one obsv.Collector, which the algorithms
// record into too, so /metrics shows serving and computation side by side
// and /v1/stats reads its counts from the same registry.
//
// Durability: with Config.WAL set, every accepted write — an insert or a
// dataset registration — is appended, and fsynced, to the write-ahead
// log before the 201 acknowledgment, so a crash never loses an
// acknowledged write. Open is the one boot of a node from disk, primary
// or follower: it loads the freshest snapshot generation, opens the WAL
// (repairing a torn tail, quarantining an unreadable header), builds the
// Server and replays the logged suffix through Replay (idempotent:
// records already in the state are skipped), and returns what it did as
// a Recovery. A follower's server owns its local log the same way:
// ApplyReplicated appends each replicated batch before applying it.
// CheckpointWith serializes snapshot checkpoints and truncates the WAL
// only after the checkpoint commit succeeds. When the log itself fails,
// the server degrades to read-only: queries keep working, writes return
// 503, /readyz reports "degraded".
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"rdfcube/internal/core"
	"rdfcube/internal/front"
	"rdfcube/internal/obsv"
	"rdfcube/internal/qb"
	"rdfcube/internal/rdf"
	"rdfcube/internal/snapshot"
	"rdfcube/internal/wal"
	"rdfcube/internal/wire"
)

// Metric names reported through the Recorder.
const (
	CtrRequests    = "serve.requests"     // total requests admitted
	CtrShed        = "serve.shed"         // requests shed with 429
	CtrErrors      = "serve.errors"       // 4xx/5xx responses
	CtrInserts     = "serve.inserts"      // observations inserted
	CtrPanics      = "serve.panics"       // handler panics recovered
	CtrCanceled    = "serve.canceled"     // requests abandoned (499/504)
	CtrWALAppends  = "serve.wal.appends"  // records durably logged
	CtrWALReplayed = "serve.wal.replayed" // logged or replicated records applied
	CtrRetryAfter  = "serve.retry_after"  // responses that told the client when to retry
	GaugeInFlight  = "serve.inflight"     // requests currently executing
	GaugeDegraded  = "serve.degraded"     // 1 while in read-only mode
)

// Histogram names reported through the Recorder.
const (
	// HistLatency is the all-routes handler latency distribution (µs); its
	// _sum and _count in /metrics are the summed latency and the request
	// count. Each route additionally gets "serve.latency.<route>.us".
	HistLatency = "serve.latency.us"
	// HistWALAppend is the WAL append-to-ack latency (µs): the fsync cost
	// every durable insert pays before its 201.
	HistWALAppend = "serve.wal.append.us"
	// HistCheckpointEncode / HistCheckpointWrite split a checkpoint into
	// its encode-under-lock and commit-outside-lock halves (µs).
	HistCheckpointEncode = "serve.checkpoint.encode.us"
	HistCheckpointWrite  = "serve.checkpoint.write.us"
)

// routeHistName returns the per-route latency histogram name.
func routeHistName(route string) string { return "serve.latency." + route + ".us" }

// Config tunes a Server. The zero value is serviceable.
type Config struct {
	// Tasks selects the relationship types maintained on insert; zero
	// means all three.
	Tasks core.Tasks
	// Recorder is the server's one registry: request counters, latency
	// histograms and the insert counters core.Incremental reports land in
	// it, and /v1/stats and /readyz read their counts back from it. Nil
	// means the server makes its own.
	Recorder *obsv.Collector
	// RequestTimeout bounds one request's handling; zero means 5s.
	RequestTimeout time.Duration
	// MaxInFlight bounds concurrently executing requests; beyond it
	// requests are shed with 429. Zero means 128.
	MaxInFlight int
	// WAL, when non-nil, receives every accepted write (insert or dataset
	// registration) — durably, via fsync — BEFORE the client sees the 201
	// ack, so a crash never loses an acknowledged write. An append failure
	// flips the server into degraded read-only mode: queries keep working,
	// writes return 503.
	WAL *wal.Log
	// Logf receives operational log lines (recovered panics, degraded-
	// mode transitions, replay summaries). Nil discards them.
	Logf func(format string, a ...any)
	// TraceRing bounds the in-memory ring of recent request traces served
	// at /debug/traces; zero means 128. Every request is traced — the
	// per-request cost is one small span-tree allocation, far below the
	// JSON encoding the request pays anyway.
	TraceRing int
	// SlowThreshold gates the structured slow-query log: a request at
	// least this slow is written to SlowLog as one JSON line (trace ID,
	// route, status, span tree). Zero disables the log.
	SlowThreshold time.Duration
	// SlowLog receives the slow-query log lines. Nil disables the log
	// even with SlowThreshold set.
	SlowLog io.Writer
	// SnapshotGen, when set, reports the snapshot generation id backing
	// this server (Open wires it to the rotator). Followers read it
	// from /v1/stats and bootstrap responses to see what they negotiated.
	SnapshotGen func() uint64
	// Follower, when non-nil, puts the server in read-only replica mode:
	// writes (inserts, dataset registrations) and the replication
	// endpoints are refused with 503 plus a Leader header, and /readyz +
	// /v1/stats report the replication lag and staleness recorded on it
	// (see internal/replica, which maintains it).
	Follower *FollowerState
	// WALPollWait is the default long-poll budget for a /v1/wal request
	// whose offset is at the durable end; zero means 10s, capped at 30s.
	WALPollWait time.Duration
}

func (c Config) timeout() time.Duration {
	if c.RequestTimeout <= 0 {
		return 5 * time.Second
	}
	return c.RequestTimeout
}

func (c Config) maxInFlight() int {
	if c.MaxInFlight <= 0 {
		return 128
	}
	return c.MaxInFlight
}

func (c Config) walPollWait() time.Duration {
	if c.WALPollWait <= 0 {
		return 10 * time.Second
	}
	if c.WALPollWait > maxWALWait {
		return maxWALWait
	}
	return c.WALPollWait
}

// Server answers relationship queries over one snapshot's state and
// accepts live writes. One writer (inserts, dataset registrations,
// checkpoints) excludes the many readers via an RWMutex; read handlers
// touch only state guarded by it.
type Server struct {
	mu sync.RWMutex
	// inc holds the space and the lattice; its Result is only the current
	// insert's delta.
	inc *core.Incremental
	// index is the relationship store: every observation's neighbour
	// lists, grown by applyInsertLocked with each insert's delta.
	index *core.Index
	// uriIdx resolves a full observation URI to its index; maintained
	// under mu alongside the space.
	uriIdx map[string]int
	// dsIdx resolves a dataset URI to its corpus position.
	dsIdx map[string]int
	// degText[k] is the JSON text of the partial-containment degree k/|P|
	// (see appendPartialRefs); |P| is fixed when the space is compiled.
	degText []string
	// refs[i] is observation i's neighbour fragment `{"obs":i,"uri":"…"`
	// (wire.AppendRef; see render.go), grown by applyInsertLocked
	// alongside the space.
	refs []string

	rec     *obsv.Collector
	timeout time.Duration
	sem     chan struct{}
	wlog    *wal.Log
	logf    func(format string, a ...any)

	// front is the HTTP layer around every route: counters, latency,
	// trace IDs and spans, panic containment, the trace ring behind
	// /debug/traces, the slow-query log and the request deadline.
	front *front.Front

	// runCtx lives as long as the server; BeginShutdown cancels it so
	// /v1/wal long-polls parked at the tail return at once.
	runCtx   context.Context
	stopRuns context.CancelFunc

	// ckptMu serializes checkpoints: a SIGTERM arriving during a timer
	// checkpoint must not start a second concurrent Checkpoint on the
	// same path (and WAL truncation must pair with exactly one commit).
	ckptMu sync.Mutex

	// Replication (primary side): the per-incarnation stream ID, the
	// logical offset of the physical WAL start (advanced when checkpoints
	// truncate the log), the count of record frames the stream has carried,
	// and the broadcast channel appends close to wake /v1/wal long-pollers.
	// streamID and snapGen are immutable after New; walBase and walSeq are
	// guarded by mu (written under the write lock, read under either).
	streamID  string
	walBase   int64
	walSeq    int64
	notifyMu  sync.Mutex
	walNotify chan struct{}
	snapGen   func() uint64
	pollWait  time.Duration

	// follower is non-nil in read-only replica mode.
	follower *FollowerState

	degraded atomic.Bool
	started  time.Time
}

// New builds a server over the snapshot's state. The space and the
// lattice are adopted (not copied): the server becomes their owner and
// mutates them on insert. The result is read once into the index and not
// kept; the caller may drop it.
func New(sn *snapshot.Snapshot, cfg Config) (*Server, error) {
	inc := core.NewIncrementalFrom(sn.Space, cfg.Tasks, nil, sn.Lattice)
	if cfg.Recorder == nil {
		cfg.Recorder = obsv.NewCollector()
	}
	sn.Space.SetRecorder(cfg.Recorder)
	s := &Server{
		inc:     inc,
		index:   core.NewIndex(sn.Space, sn.Result),
		uriIdx:  make(map[string]int, sn.Space.N()),
		refs:    make([]string, 0, sn.Space.N()),
		dsIdx:   make(map[string]int, len(sn.Space.Corpus.Datasets)),
		degText: degreeTexts(sn.Space.NumDims()),
		rec:     cfg.Recorder,
		timeout: cfg.timeout(),
		sem:     make(chan struct{}, cfg.maxInFlight()),
		wlog:    cfg.WAL,
		logf:    cfg.Logf,
		started: time.Now(),
		front: front.New(front.Config{
			Requests: CtrRequests, Errors: CtrErrors, Panics: CtrPanics,
			Latency: HistLatency, RouteLatency: routeHistName,
			Recorder:      cfg.Recorder,
			Logf:          cfg.Logf,
			Timeout:       cfg.timeout(),
			TraceRing:     cfg.TraceRing,
			SlowThreshold: cfg.SlowThreshold,
			SlowLog:       cfg.SlowLog,
		}),

		streamID:  newStreamID(),
		walNotify: make(chan struct{}),
		snapGen:   cfg.SnapshotGen,
		pollWait:  cfg.walPollWait(),
		follower:  cfg.Follower,
	}
	s.runCtx, s.stopRuns = context.WithCancel(context.Background())
	for i, o := range sn.Space.Obs {
		if _, dup := s.uriIdx[o.URI.Value]; !dup {
			s.uriIdx[o.URI.Value] = i
		}
		s.refs = append(s.refs, string(wire.AppendRef(nil, i, o.URI.Value)))
	}
	for i, ds := range sn.Space.Corpus.Datasets {
		s.dsIdx[ds.URI.Value] = i
	}
	return s, nil
}

// Recovery is what Open did to bring a node's disk state back.
type Recovery struct {
	// Snapshot is the path of the snapshot generation that loaded.
	Snapshot string
	// QuarantinedWAL is where a write-ahead log whose header could not
	// be read was renamed ("" when none was).
	QuarantinedWAL string
	// TornBytes counts the torn trailing bytes cut from the log.
	TornBytes int64
	// Replayed counts the log records applied; Skipped counts those the
	// snapshot already held. When replay fails, Replayed counts the
	// records applied before the one that failed.
	Replayed, Skipped int
}

// Open boots a node from its disk state, the one way every node — a
// primary, or a follower with cfg.Follower set — starts: the freshest readable snapshot generation (rot.Load,
// which quarantines corrupt candidates), the write-ahead log at walPath on
// the rotator's filesystem (wal.Open, which repairs a torn tail and
// quarantines an unreadable header), a Server over both, and a replay of
// the logged records. Open wires cfg.WAL and cfg.SnapshotGen itself; an
// empty walPath runs without a log. The log belongs to the server: close
// it through WAL() once the server is done. What recovery did is logged
// through cfg.Logf and returned. When nothing exists to load, the error
// wraps fs.ErrNotExist and Recovery.Snapshot is empty.
func Open(rot *snapshot.Rotator, walPath string, cfg Config) (_ *Server, rec Recovery, err error) {
	start := time.Now()
	sn, from, err := rot.Load()
	if err != nil {
		return nil, rec, err
	}
	loaded := time.Since(start)
	rec.Snapshot = from
	var recs []wal.Record
	if walPath != "" {
		if cfg.WAL, recs, err = wal.Open(rot.FS, walPath); err != nil {
			return nil, rec, err
		}
		defer func() {
			if err != nil {
				cfg.WAL.Close()
			}
		}()
		rec.QuarantinedWAL, rec.TornBytes = cfg.WAL.Quarantined(), cfg.WAL.RepairedBytes()
	}
	cfg.SnapshotGen = func() uint64 { g, _ := rot.CurrentGen(); return g }
	s, err := New(sn, cfg)
	if err != nil {
		return nil, rec, err
	}
	s.log("loaded snapshot %s in %s (%d observations, %d lattice cubes)", from, loaded.Round(time.Millisecond), sn.Space.N(), sn.Lattice.Len())
	if rec.QuarantinedWAL != "" {
		s.log("wal %s had an unreadable header; quarantined to %s, starting a fresh log", walPath, rec.QuarantinedWAL)
	}
	if rec.TornBytes > 0 {
		s.log("wal %s: truncated %d torn trailing bytes from an interrupted append", walPath, rec.TornBytes)
	}
	if len(recs) > 0 {
		if rec.Replayed, err = s.Replay(recs); err != nil {
			return nil, rec, fmt.Errorf("replaying wal %s: %w", walPath, err)
		}
		rec.Skipped = len(recs) - rec.Replayed
		s.log("replayed %d WAL records from %s (%d already in the snapshot)", rec.Replayed, walPath, rec.Skipped)
	}
	return s, rec, nil
}

// WAL exposes the configured write-ahead log (nil when durability is
// disabled). A server built by Open owns its log; close it through here
// once the server is done.
func (s *Server) WAL() *wal.Log { return s.wlog }

// Degraded reports whether the server is in read-only mode (the write
// log failed; reads keep working, writes return 503).
func (s *Server) Degraded() bool { return s.degraded.Load() }

// markDegraded transitions into read-only mode (idempotent).
func (s *Server) markDegraded(reason string) {
	if s.degraded.CompareAndSwap(false, true) {
		s.rec.Gauge(GaugeDegraded, 1)
		s.log("entering degraded read-only mode: %s", reason)
	}
}

func (s *Server) log(format string, a ...any) {
	if s.logf != nil {
		s.logf(format, a...)
	}
}

// BeginShutdown cancels the server-lifetime run context, releasing every
// /v1/wal long-poll parked at the durable end. Call it BEFORE
// http.Server.Shutdown: Shutdown waits for in-flight requests to finish,
// and a caught-up follower's poll would otherwise hold it for up to the
// poll budget. Idempotent.
func (s *Server) BeginShutdown() { s.stopRuns() }

// Replay applies WAL records recovered at startup through the same
// paths live writes use, and appends nothing: the records are already in
// the log. Records already reflected in the state are skipped — an
// insert whose URI is present, a registration the space already holds at
// the logged index with the logged schema — which makes replay
// idempotent when a crash landed between a committed checkpoint and the
// WAL truncation that should have followed it. It returns the number of
// records applied. A record that cannot apply (unknown dataset
// index, schema arity mismatch, validation failure, a registration at
// another index or with another schema) aborts with an error: the log
// disagrees with the snapshot and silently dropping acknowledged writes
// is not an option.
func (s *Server) Replay(recs []wal.Record) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	applied, err := s.replayLocked(recs)
	if err == nil {
		// Every replayed frame is part of the logical WAL stream whether or
		// not it applied (dup-skips included): followers count frames, not
		// writes.
		s.walSeq += int64(len(recs))
	}
	return applied, err
}

// ApplyReplicated commits record frames a follower pulled from its
// primary: it appends the batch to the server's log (one fsync), then
// applies it exactly as Replay does. A failed append degrades the server
// and the batch applies anyway — a follower's memory keeps following its
// primary while its disk does not — and later batches skip the log while
// the server is degraded. Without a log it only applies.
func (s *Server) ApplyReplicated(recs []wal.Record) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wlog == nil || s.Degraded() || s.appendLocked(nil, recs...) != nil {
		s.walSeq += int64(len(recs)) // the frames the log did not count
	}
	return s.replayLocked(recs)
}

// replayLocked applies logged or replicated records and counts the ones
// that applied. Callers hold the write lock.
func (s *Server) replayLocked(recs []wal.Record) (int, error) {
	applied := 0
	for k, rec := range recs {
		var ok bool
		var err error
		if rec.Register {
			ok, err = s.replayRegisterLocked(rec)
		} else {
			ok, err = s.replayInsertLocked(rec)
		}
		if err != nil {
			return applied, fmt.Errorf("serve: wal record %d (%s): %w", k, rec.URI.Value, err)
		}
		if ok {
			applied++
		}
	}
	s.rec.Count(CtrWALReplayed, int64(applied))
	return applied, nil
}

// replayInsertLocked redoes one logged insert; false means the
// observation was already present. Callers hold the write lock.
func (s *Server) replayInsertLocked(rec wal.Record) (bool, error) {
	if _, dup := s.uriIdx[rec.URI.Value]; dup {
		return false, nil
	}
	if rec.Dataset < 0 || rec.Dataset >= len(s.inc.S.Corpus.Datasets) {
		return false, fmt.Errorf("dataset index %d out of range [0, %d)", rec.Dataset, len(s.inc.S.Corpus.Datasets))
	}
	ds := s.inc.S.Corpus.Datasets[rec.Dataset]
	if len(rec.DimValues) != len(ds.Schema.Dimensions) || len(rec.MeasureValues) != len(ds.Schema.Measures) {
		return false, fmt.Errorf("value arity (%d dims, %d measures) does not match schema of %s (%d, %d)",
			len(rec.DimValues), len(rec.MeasureValues), ds.URI.Value, len(ds.Schema.Dimensions), len(ds.Schema.Measures))
	}
	o := &qb.Observation{
		URI:           rec.URI,
		Dataset:       ds,
		DimValues:     append([]rdf.Term(nil), rec.DimValues...),
		MeasureValues: append([]rdf.Term(nil), rec.MeasureValues...),
	}
	return true, s.applyInsertLocked(rec.Dataset, o)
}

// replayRegisterLocked redoes one logged dataset registration; false
// means the space already holds it at the logged index with the logged
// schema. Callers hold the write lock.
func (s *Server) replayRegisterLocked(rec wal.Record) (bool, error) {
	ds := &qb.Dataset{URI: rec.URI, Schema: qb.NewSchema(rec.DimValues, rec.MeasureValues)}
	n := len(s.inc.S.Corpus.Datasets)
	if rec.Dataset >= 0 && rec.Dataset < n {
		held := s.inc.S.Corpus.Datasets[rec.Dataset]
		switch {
		case held.URI != ds.URI:
			return false, fmt.Errorf("registration at index %d, but the space holds %s there", rec.Dataset, held.URI.Value)
		case !schemaEqual(held.Schema, ds.Schema):
			return false, fmt.Errorf("registration at index %d with another schema than the space holds", rec.Dataset)
		}
		return false, nil
	}
	if rec.Dataset != n {
		return false, fmt.Errorf("registration at index %d, but the next dataset index is %d", rec.Dataset, n)
	}
	return true, s.registerLocked(ds)
}

// applyInsertLocked inserts one validated-or-replayed observation into
// the maintained state: the insert emits into the emptied delta, and the
// index folds the delta in. Callers hold the write lock; the delta stays
// readable until the next insert.
func (s *Server) applyInsertLocked(dsIndex int, o *qb.Observation) error {
	d := s.inc.Res
	d.FullSet, d.PartialSet, d.ComplSet = d.FullSet[:0], d.PartialSet[:0], d.ComplSet[:0]
	idx, err := s.inc.Insert(o)
	if err != nil {
		return err
	}
	s.inc.S.Corpus.Datasets[dsIndex].Observations = append(s.inc.S.Corpus.Datasets[dsIndex].Observations, o)
	s.uriIdx[o.URI.Value] = idx
	s.refs = append(s.refs, string(wire.AppendRef(nil, idx, o.URI.Value)))
	s.index.Apply(d)
	return nil
}

// EncodeSnapshot captures a consistent snapshot of the current state as
// encoded bytes. It takes the read lock, which excludes every writer
// (inserts, replays and dataset registration take the write lock) while
// readers keep being served, and performs no I/O, so the pause writers
// see is bounded by encoding speed, not disk speed.
func (s *Server) EncodeSnapshot() ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.encodeSnapshotLocked()
}

// encodeSnapshotLocked encodes the current state; callers hold s.mu
// (either mode: encoding only reads the space and the index).
func (s *Server) encodeSnapshotLocked() ([]byte, error) {
	return snapshot.EncodeIndex(s.index)
}

// CheckpointWith runs one full checkpoint cycle: encode the state under
// the read lock, hand the bytes to commit (which must make them durable —
// e.g. a snapshot.Rotator's Write), and only after commit succeeds
// truncate the WAL, because every record the log held is now covered by
// the committed snapshot. ckptMu serializes whole cycles: the shutdown
// checkpoint a SIGTERM triggers can race the periodic timer checkpoint,
// and running both concurrently would interleave generation writes and
// could truncate the WAL against the wrong snapshot.
//
// The truncation is guarded against a subtler race: an insert landing
// between the encode and the commit is in the WAL but NOT in the
// committed snapshot, so truncating would silently drop an acknowledged
// write. The WAL size is therefore captured at encode time (under the
// same lock inserts append under) and the log is truncated only when it
// is still exactly that size; otherwise truncation is skipped — replay
// is idempotent, so carrying already-checkpointed records to the next
// startup costs duplicate-skips, never correctness.
func (s *Server) CheckpointWith(commit func(data []byte) error) error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()

	s.mu.RLock()
	encStart := time.Now()
	data, err := s.encodeSnapshotLocked()
	s.rec.Observe(HistCheckpointEncode, time.Since(encStart).Microseconds())
	var mark int64 = -1
	if err == nil && s.wlog != nil {
		mark = s.wlog.Size()
	}
	s.mu.RUnlock()
	if err != nil {
		return err
	}

	writeStart := time.Now()
	if err := commit(data); err != nil {
		return err
	}
	s.rec.Observe(HistCheckpointWrite, time.Since(writeStart).Microseconds())

	if s.wlog != nil {
		s.mu.Lock()
		if s.wlog.Size() == mark {
			if terr := s.wlog.Truncate(); terr != nil {
				// The snapshot is committed; a stale WAL only costs
				// idempotent replay work at next startup. Degrade writes,
				// keep serving.
				s.markDegraded(fmt.Sprintf("wal truncate after checkpoint: %v", terr))
				s.log("checkpoint committed but wal truncate failed: %v", terr)
			} else {
				// Every truncated record byte is covered by the committed
				// snapshot: the logical stream start advances so follower
				// offsets survive the truncation, and anything older answers
				// 410 (the follower re-bootstraps from the snapshot).
				s.walBase += mark - wal.HeaderLen
			}
		} else {
			s.log("skipping wal truncation: %d bytes appended during the checkpoint (covered by the next one)",
				s.wlog.Size()-mark)
		}
		s.mu.Unlock()
	}
	return nil
}

// ErrCheckpointTimeout reports that a bounded checkpoint overran its
// deadline and was abandoned.
var ErrCheckpointTimeout = errors.New("serve: checkpoint deadline exceeded")

// CheckpointWithin is CheckpointWith bounded by a wall-clock deadline:
// when the cycle has not completed within d, it returns an error wrapping
// ErrCheckpointTimeout instead of blocking forever. The shutdown path
// needs this because commit funcs end in fsync, and fsync against a hung
// device (a dead NFS mount, a wedged controller) is uninterruptible — no
// context can unstick it. The overrunning cycle is abandoned, not
// canceled: its goroutine keeps holding ckptMu until the device revives,
// which is exactly right — a later checkpoint must not interleave with a
// half-written one. The caller (cubed's shutdown) logs the timeout and
// exits; the WAL still covers every acknowledged write, so nothing is
// lost. d <= 0 means unbounded (plain CheckpointWith).
func (s *Server) CheckpointWithin(d time.Duration, commit func(data []byte) error) error {
	if d <= 0 {
		return s.CheckpointWith(commit)
	}
	done := make(chan error, 1)
	go func() { done <- s.CheckpointWith(commit) }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		return fmt.Errorf("%w after %v (checkpoint abandoned; wal still covers acknowledged writes)",
			ErrCheckpointTimeout, d)
	}
}

// Handler returns the service's HTTP handler: the /v1 API plus health
// endpoints, instrumented, concurrency-limited and deadline-bounded.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /healthz", s.wrap("healthz", s.handleHealthz))
	mux.Handle("GET /readyz", s.wrap("readyz", s.handleReadyz))
	mux.Handle("GET /v1/contains", s.wrap("contains", s.handleContains))
	mux.Handle("GET /v1/complements", s.wrap("complements", s.handleComplements))
	mux.Handle("GET /v1/related", s.wrap("related", s.handleRelated))
	mux.Handle("GET /v1/obs/{i}", s.wrap("obs", s.handleObs))
	mux.Handle("POST /v1/observations", s.wrap("insert", s.handleInsert))
	mux.Handle("POST /v1/datasets", s.wrap("datasets", s.handleCreateDataset))
	mux.Handle("GET /v1/datasets", s.wrap("digest", s.handleDatasetDigest))
	mux.Handle("GET /v1/stats", s.wrap("stats", s.handleStats))
	// Replication endpoints run without the request deadline: a snapshot
	// bootstrap legitimately streams for longer than one query's budget,
	// and /v1/wal long-polls at the tail by design.
	root := s.front.Mux(mux)
	root.Handle("GET /v1/snapshot", s.wrap("snapshot", s.handleSnapshot))
	root.Handle("GET /v1/wal", s.wrap("waltail", s.handleWALTail))
	return root
}

// SetRetryAfter writes a jittered integer-seconds Retry-After header
// (minimum 1s), so clients that were refused together do not all come
// back together. The gate answers its own refusals with it.
func SetRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int64(Jittered(d).Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
}

// setRetryAfter is SetRetryAfter, counted in the server's registry.
func (s *Server) setRetryAfter(w http.ResponseWriter, d time.Duration) {
	SetRetryAfter(w, d)
	s.rec.Count(CtrRetryAfter, 1)
}

// wrap puts one route's handler behind the admission step and the front.
// Admission bounds in-flight requests with a semaphore and sheds the
// excess with a jittered 429 before the front sees the request, so a
// shed request is neither traced nor timed.
func (s *Server) wrap(route string, h func(http.ResponseWriter, *http.Request)) http.Handler {
	inner := s.front.Wrap(route, h)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.sem <- struct{}{}:
		default:
			s.rec.Count(CtrShed, 1)
			// Jitter the retry hint over [1.5s, 3s): a shed burst must not
			// synchronize its retries into the next burst.
			s.setRetryAfter(w, 3*time.Second)
			http.Error(w, `{"error":"too many in-flight requests"}`, http.StatusTooManyRequests)
			return
		}
		defer func() { <-s.sem }()
		s.rec.Gauge(GaugeInFlight, float64(len(s.sem)))
		inner.ServeHTTP(w, r)
	})
}
