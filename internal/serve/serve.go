// Package serve exposes a computed relationship state as an HTTP/JSON
// query service — the shape the ROADMAP's production north star needs:
// pay the batch cubeMasking pass once (or load its snapshot), keep the
// sets in memory behind a single-writer/many-readers lock, answer
// per-observation queries from a core.Index's inverted lists, and route live
// inserts through core.Incremental so new observations are queryable
// without a restart.
//
// Endpoints (all JSON):
//
//	GET  /v1/contains?obs=…     full containment fan-out of one observation
//	GET  /v1/complements?obs=…  complementarity partners
//	GET  /v1/related?obs=…      everything: full both ways, partial both
//	                            ways (with degrees), complements
//	GET  /v1/obs/{i}            observation detail (URI, values, signature)
//	POST /v1/observations       live insert via core.Incremental
//	GET  /v1/stats              corpus, relationship and service counters
//	GET  /healthz               liveness (always 200 once the process is up)
//	GET  /readyz                readiness: 503 while loading, 200 with
//	                            status "ready" or "degraded" (read-only)
//
// The ?obs= parameter accepts either an observation index or a full
// observation URI.
//
// Operational behavior: every request runs under a request-scoped timeout
// (Config.RequestTimeout); a semaphore bounds in-flight requests and
// sheds the excess with 429 (Config.MaxInFlight); a panic in any handler
// is recovered, logged with its stack and answered with 500; handlers
// observe the request context, so abandoned requests stop early with 499
// (client hung up) or 504 (deadline); every handler reports request
// counters and latency through the same obsv.Recorder the algorithms
// use, so the PR-1 /metrics exposition shows serving and computation
// side by side.
//
// Durability: with Config.WAL set, every accepted insert is appended —
// and fsynced — to the write-ahead log before the 201 acknowledgment,
// so a crash never loses an acknowledged write. At startup the daemon
// replays the WAL suffix through Replay (idempotent: records whose URI
// already exists are skipped). CheckpointWith serializes snapshot
// checkpoints and truncates the WAL only after the checkpoint commit
// succeeds. When the log itself fails, the server degrades to read-only:
// queries keep working, inserts return 503, /readyz reports "degraded".
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"rdfcube/internal/core"
	"rdfcube/internal/obsv"
	"rdfcube/internal/qb"
	"rdfcube/internal/rdf"
	"rdfcube/internal/snapshot"
	"rdfcube/internal/wal"
)

// Metric names reported through the Recorder.
const (
	CtrRequests     = "serve.requests"        // total requests admitted
	CtrShed         = "serve.shed"            // requests shed with 429
	CtrErrors       = "serve.errors"          // 4xx/5xx responses
	CtrInserts      = "serve.inserts"         // observations inserted
	CtrPanics       = "serve.panics"          // handler panics recovered
	CtrCanceled     = "serve.canceled"        // requests abandoned (499/504)
	CtrWALAppends   = "serve.wal.appends"     // records durably logged
	CtrWALReplayed  = "serve.wal.replayed"    // records replayed at startup
	CtrRetryAfter   = "serve.retry_after"     // responses that told the client when to retry
	CtrLatencyMicro = "serve.latency.us"      // summed handler latency (µs)
	GaugeInFlight   = "serve.inflight"        // requests currently executing
	GaugeLastMicro  = "serve.latency.last.us" // last handler latency (µs)
	GaugeDegraded   = "serve.degraded"        // 1 while in read-only mode
)

// Histogram names reported through the Recorder's Observer extension
// (recorded only when the Recorder supports distributions, e.g.
// obsv.Collector). The sum counter and last-value gauge above stay for
// compatibility; the histograms are what answers "what is p99?".
const (
	// HistLatency is the all-routes handler latency distribution (µs);
	// each route additionally gets "serve.latency.<route>.us".
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
	// Recorder receives request counters, latency gauges and the insert
	// counters core.Incremental reports. Nil disables instrumentation.
	Recorder obsv.Recorder
	// RequestTimeout bounds one request's handling; zero means 5s.
	RequestTimeout time.Duration
	// MaxInFlight bounds concurrently executing requests; beyond it
	// requests are shed with 429. Zero means 128.
	MaxInFlight int
	// WAL, when non-nil, receives every accepted insert — durably, via
	// fsync — BEFORE the client sees the 201 ack, so a crash never loses
	// an acknowledged write. An append failure flips the server into
	// degraded read-only mode: queries keep working, inserts return 503.
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
	// this server (the daemon wires it to its rotator). Followers read it
	// from /v1/stats and bootstrap responses to see what they negotiated.
	SnapshotGen func() uint64
	// Follower, when non-nil, puts the server in read-only replica mode:
	// writes (inserts, dataset registrations) are refused with 503 plus a
	// Leader header, and /readyz + /v1/stats report the replication lag
	// and staleness recorded on it (see internal/replica, which maintains
	// it).
	Follower *FollowerState
	// WALPollWait is the default long-poll budget for a /v1/wal request
	// whose offset is at the durable end; zero means 10s, capped at 30s.
	WALPollWait time.Duration
	// CheckpointNow, when set, synchronously runs one full checkpoint
	// cycle through the daemon's snapshot store (typically a closure over
	// CheckpointWith and a snapshot.Rotator). POST /v1/datasets calls it
	// to make a registration durable BEFORE the dataset becomes
	// insertable: a schema change cannot ride the WAL (an unknown record
	// kind reads as a torn tail on replay), so the snapshot is the only
	// durable carrier. Required when WAL is set — a WAL-backed server
	// without it refuses registrations, because a durable insert into a
	// volatile dataset would fail replay after a crash.
	CheckpointNow func() error
	// DisableDatasetCreate turns POST /v1/datasets off (501). Operators
	// who want a frozen schema surface set this.
	DisableDatasetCreate bool
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
// accepts live inserts. One writer (POST /v1/observations, checkpoints)
// excludes the many readers via an RWMutex; read handlers touch only
// state guarded by it.
type Server struct {
	mu  sync.RWMutex
	inc *core.Incremental
	// index holds every observation's neighbour lists; applyInsertLocked
	// grows it with each insert's pairs.
	index *core.Index
	// uriIdx resolves a full observation URI to its index; maintained
	// under mu alongside the space.
	uriIdx map[string]int
	// dsIdx resolves a dataset URI to its corpus position.
	dsIdx map[string]int
	// degText[k] is the JSON text of the partial-containment degree k/|P|
	// (see appendPartialRefs); |P| is fixed when the space is compiled.
	degText []string

	rec     obsv.Recorder
	timeout time.Duration
	sem     chan struct{}
	wlog    *wal.Log
	logf    func(format string, a ...any)

	// Request tracing: the bounded recent-trace ring behind /debug/traces
	// and the threshold-gated slow-query log.
	traces     *traceRing
	slowThresh time.Duration
	slowMu     sync.Mutex
	slowLog    io.Writer

	// runCtx lives as long as the server; BeginShutdown cancels it so
	// /v1/wal long-polls parked at the tail return at once.
	runCtx   context.Context
	stopRuns context.CancelFunc

	// ckptMu serializes checkpoints: a SIGTERM arriving during a timer
	// checkpoint must not start a second concurrent Checkpoint on the
	// same path (and WAL truncation must pair with exactly one commit).
	ckptMu sync.Mutex

	// Dataset registration: the daemon's synchronous-checkpoint hook and
	// the mutex serializing whole register-then-checkpoint-then-publish
	// cycles (regMu is held across the checkpoint, so it must never be
	// acquired while holding mu).
	ckptNow     func() error
	regMu       sync.Mutex
	dsCreateOff bool

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

	ready    atomic.Bool
	degraded atomic.Bool
	inserts  atomic.Int64
	replayed atomic.Int64
	started  time.Time
}

// New builds a server over the snapshot's state. The snapshot's space,
// result and lattice are adopted (not copied): the server becomes their
// owner and mutates them on insert.
func New(sn *snapshot.Snapshot, cfg Config) (*Server, error) {
	inc := core.NewIncrementalFrom(sn.Space, cfg.Tasks, sn.Result, sn.Lattice)
	if cfg.Recorder != nil {
		sn.Space.SetRecorder(cfg.Recorder)
	}
	s := &Server{
		inc:     inc,
		index:   core.NewIndex(sn.Space, sn.Result),
		uriIdx:  make(map[string]int, sn.Space.N()),
		dsIdx:   make(map[string]int, len(sn.Space.Corpus.Datasets)),
		degText: degreeTexts(sn.Space.NumDims()),
		rec:     cfg.Recorder,
		timeout: cfg.timeout(),
		sem:     make(chan struct{}, cfg.maxInFlight()),
		wlog:    cfg.WAL,
		logf:    cfg.Logf,
		started: time.Now(),

		traces:     newTraceRing(cfg.TraceRing),
		slowThresh: cfg.SlowThreshold,
		slowLog:    cfg.SlowLog,

		streamID:  newStreamID(),
		walNotify: make(chan struct{}),
		snapGen:   cfg.SnapshotGen,
		pollWait:  cfg.walPollWait(),
		follower:  cfg.Follower,

		ckptNow:     cfg.CheckpointNow,
		dsCreateOff: cfg.DisableDatasetCreate,
	}
	s.runCtx, s.stopRuns = context.WithCancel(context.Background())
	for i, o := range sn.Space.Obs {
		if _, dup := s.uriIdx[o.URI.Value]; !dup {
			s.uriIdx[o.URI.Value] = i
		}
	}
	for i, ds := range sn.Space.Corpus.Datasets {
		s.dsIdx[ds.URI.Value] = i
	}
	s.ready.Store(true)
	return s, nil
}

// Incremental exposes the maintained state (for the daemon's checkpoint
// and for tests). Callers must not mutate it concurrently with requests.
func (s *Server) Incremental() *core.Incremental { return s.inc }

// WAL exposes the configured write-ahead log (nil when durability is
// disabled).
func (s *Server) WAL() *wal.Log { return s.wlog }

// Degraded reports whether the server is in read-only mode (the write
// log failed; reads keep working, writes return 503).
func (s *Server) Degraded() bool { return s.degraded.Load() }

// markDegraded transitions into read-only mode (idempotent).
func (s *Server) markDegraded(reason string) {
	if s.degraded.CompareAndSwap(false, true) {
		s.gauge(GaugeDegraded, 1)
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
// incremental maintenance path live inserts use. Records whose URI is
// already present are skipped — that makes replay idempotent when a
// crash landed between a committed checkpoint and the WAL truncation
// that should have followed it. It returns the number of records
// applied. A record that cannot apply (unknown dataset index, schema
// arity mismatch, validation failure) aborts with an error: the log
// disagrees with the snapshot and silently dropping acknowledged writes
// is not an option.
func (s *Server) Replay(recs []wal.Record) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	applied := 0
	for k, rec := range recs {
		if _, dup := s.uriIdx[rec.URI.Value]; dup {
			continue
		}
		if rec.Dataset < 0 || rec.Dataset >= len(s.inc.S.Corpus.Datasets) {
			return applied, fmt.Errorf("serve: wal record %d: dataset index %d out of range [0, %d)",
				k, rec.Dataset, len(s.inc.S.Corpus.Datasets))
		}
		ds := s.inc.S.Corpus.Datasets[rec.Dataset]
		if len(rec.DimValues) != len(ds.Schema.Dimensions) || len(rec.MeasureValues) != len(ds.Schema.Measures) {
			return applied, fmt.Errorf("serve: wal record %d: value arity (%d dims, %d measures) does not match schema of %s (%d, %d)",
				k, len(rec.DimValues), len(rec.MeasureValues), ds.URI.Value, len(ds.Schema.Dimensions), len(ds.Schema.Measures))
		}
		o := &qb.Observation{
			URI:           rec.URI,
			Dataset:       ds,
			DimValues:     append([]rdf.Term(nil), rec.DimValues...),
			MeasureValues: append([]rdf.Term(nil), rec.MeasureValues...),
		}
		if err := s.applyInsertLocked(rec.Dataset, o); err != nil {
			return applied, fmt.Errorf("serve: wal record %d (%s): %w", k, rec.URI.Value, err)
		}
		applied++
	}
	s.replayed.Add(int64(applied))
	s.count(CtrWALReplayed, int64(applied))
	// Every replayed frame is part of the logical WAL stream whether or not
	// it applied (dup-skips included): followers count frames, not inserts.
	s.walSeq += int64(len(recs))
	return applied, nil
}

// ApplyReplicated applies record frames a follower pulled from its
// primary: exactly Replay (idempotent, under the write lock), named
// separately so the replication path reads as what it is.
func (s *Server) ApplyReplicated(recs []wal.Record) (int, error) {
	return s.Replay(recs)
}

// applyInsertLocked inserts one validated-or-replayed observation into
// the maintained state. Callers hold the write lock.
func (s *Server) applyInsertLocked(dsIndex int, o *qb.Observation) error {
	f0 := len(s.inc.Res.FullSet)
	p0 := len(s.inc.Res.PartialSet)
	c0 := len(s.inc.Res.ComplSet)
	idx, err := s.inc.Insert(o)
	if err != nil {
		return err
	}
	s.inc.S.Corpus.Datasets[dsIndex].Observations = append(s.inc.S.Corpus.Datasets[dsIndex].Observations, o)
	s.uriIdx[o.URI.Value] = idx
	s.index.Apply(s.inc.Res, f0, p0, c0)
	return nil
}

// EncodeSnapshot captures a consistent snapshot of the current state as
// encoded bytes. It takes the write lock (the lattice's lazily sorted
// cube order makes even encoding a logical write) but performs no I/O, so
// the pause is bounded by encoding speed, not disk speed.
func (s *Server) EncodeSnapshot() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.encodeSnapshotLocked()
}

// encodeSnapshotLocked encodes the current state; callers hold the write
// lock (the lattice's lazily sorted cube order makes encoding a logical
// write).
func (s *Server) encodeSnapshotLocked() ([]byte, error) {
	return snapshot.New(s.inc.S, s.inc.Res, s.inc.Lattice()).Encode()
}

// CheckpointWith runs one full checkpoint cycle: encode the state under
// the lock, hand the bytes to commit (which must make them durable —
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

	s.mu.Lock()
	encStart := time.Now()
	data, err := s.encodeSnapshotLocked()
	s.observe(HistCheckpointEncode, time.Since(encStart).Microseconds())
	var mark int64 = -1
	if err == nil && s.wlog != nil {
		mark = s.wlog.Size()
	}
	s.mu.Unlock()
	if err != nil {
		return err
	}

	writeStart := time.Now()
	if err := commit(data); err != nil {
		return err
	}
	s.observe(HistCheckpointWrite, time.Since(writeStart).Microseconds())

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
// endpoints, instrumented, concurrency-limited and timeout-bounded.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /healthz", s.wrap("healthz", s.handleHealthz))
	mux.Handle("GET /readyz", s.wrap("readyz", s.handleReadyz))
	mux.Handle("GET /v1/contains", s.wrap("contains", s.handleContains))
	mux.Handle("GET /v1/complements", s.wrap("complements", s.handleComplements))
	mux.Handle("GET /v1/related", s.wrap("related", s.handleRelated))
	mux.Handle("GET /v1/obs/{i}", s.wrap("obs", s.handleObs))
	mux.Handle("POST /v1/observations", s.wrap("insert", s.handleInsert))
	mux.Handle("GET /v1/stats", s.wrap("stats", s.handleStats))
	inner := http.TimeoutHandler(mux, s.timeout, `{"error":"request timed out"}`)
	outer := http.NewServeMux()
	// Replication endpoints live outside the TimeoutHandler: a snapshot
	// bootstrap legitimately streams for longer than one query's budget,
	// and /v1/wal long-polls at the tail by design.
	outer.Handle("GET /v1/snapshot", s.wrap("snapshot", s.handleSnapshot))
	outer.Handle("GET /v1/wal", s.wrap("waltail", s.handleWALTail))
	// Dataset registration also lives outside the TimeoutHandler: it
	// synchronously checkpoints the snapshot (its durability point),
	// which can legitimately outlast one query's budget.
	outer.Handle("POST /v1/datasets", s.wrap("datasets", s.handleCreateDataset))
	// The trace ring is served unwrapped: reading traces must not charge
	// the semaphore, appear in the ring it is reading, or be shed under
	// the very overload it is diagnosing.
	outer.HandleFunc("GET /debug/traces", s.handleTraces)
	outer.Handle("/", inner)
	return outer
}

// setRetryAfter writes a jittered integer-seconds Retry-After header
// (minimum 1s) and counts it, so clients that were refused together do
// not all come back together.
func (s *Server) setRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int64(Jittered(d).Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	s.count(CtrRetryAfter, 1)
}

// wrap applies the semaphore, tracing, instrumentation and error
// counting to one route's handler. Every admitted request gets a trace
// ID (the client's X-Request-Id, or a generated one), echoed on the
// response and carried on the request context so handlers, error bodies
// and the panic log can correlate; the request's span tree lands in the
// /debug/traces ring when it completes.
func (s *Server) wrap(route string, h func(http.ResponseWriter, *http.Request)) http.Handler {
	routeRequests, routeHist := CtrRequests+"."+route, routeHistName(route)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.sem <- struct{}{}:
		default:
			s.count(CtrShed, 1)
			// Jitter the retry hint over [1.5s, 3s): a shed burst must not
			// synchronize its retries into the next burst.
			s.setRetryAfter(w, 3*time.Second)
			http.Error(w, `{"error":"too many in-flight requests"}`, http.StatusTooManyRequests)
			return
		}
		defer func() { <-s.sem }()
		s.count(CtrRequests, 1)
		s.count(routeRequests, 1)
		s.gauge(GaugeInFlight, float64(len(s.sem)))

		tid := r.Header.Get(TraceIDHeader)
		if tid == "" || len(tid) > maxTraceIDLen {
			tid = newTraceID()
		}
		w.Header().Set(TraceIDHeader, tid)
		tr := &reqTrace{id: tid, tc: obsv.NewTraceCollector()}
		r = r.WithContext(context.WithValue(r.Context(), traceCtxKey{}, tr))

		start := time.Now()
		endSpan := tr.tc.Start(route)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		func() {
			// Panic recovery: one bad request must not take down the
			// daemon. Log the stack with the trace ID, count it, and
			// answer 500 if the handler had not yet written a response.
			defer func() {
				if rec := recover(); rec != nil {
					s.count(CtrPanics, 1)
					s.log("panic in %s handler (trace %s): %v\n%s", route, tid, rec, debug.Stack())
					if !sw.wrote {
						writeJSON(sw, http.StatusInternalServerError,
							map[string]string{"error": "internal server error", "traceId": tid})
					}
				}
			}()
			h(sw, r)
		}()
		endSpan()
		us := time.Since(start).Microseconds()
		s.count(CtrLatencyMicro, us)
		s.gauge(GaugeLastMicro, float64(us))
		s.observe(HistLatency, us)
		s.observe(routeHist, us)
		if sw.status >= 400 {
			s.count(CtrErrors, 1)
		}

		trace := &Trace{
			ID:         tid,
			Route:      route,
			Method:     r.Method,
			Path:       r.URL.Path,
			Status:     sw.status,
			Start:      start,
			DurationUs: us,
			Spans:      tr.tc.Spans(),
		}
		s.traces.add(trace)
		if s.slowThresh > 0 && s.slowLog != nil && time.Duration(us)*time.Microsecond >= s.slowThresh {
			s.logSlow(trace)
		}
	})
}

// statusWriter remembers the response status for error accounting and
// whether anything was written (so panic recovery knows if a 500 can
// still be sent).
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(p)
}

func (s *Server) count(name string, delta int64) {
	if s.rec != nil {
		s.rec.Count(name, delta)
	}
}

func (s *Server) gauge(name string, v float64) {
	if s.rec != nil {
		s.rec.Gauge(name, v)
	}
}

// observe records a histogram sample when the recorder supports
// distributions (no-op otherwise).
func (s *Server) observe(name string, v int64) {
	if s.rec != nil {
		obsv.Observe(s.rec, name, v)
	}
}

// Start listens on addr (port 0 for an ephemeral port) and serves the
// handler until the returned http.Server is shut down. It returns the
// bound address.
func Start(addr string, s *Server) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: s.Handler()}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr().String(), nil
}
