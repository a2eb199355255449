// Package replica implements read replicas: a follower bootstraps its
// state from a primary cubed's GET /v1/snapshot, then tails the
// primary's write-ahead log over GET /v1/wal — the CRC-framed WAL record
// format is the replication wire format — applying each record through
// the same incremental-maintenance path live inserts use. The follower
// serves every read route of the /v1 API from its own copy; writes are
// refused with 503 plus a Leader header pointing at the primary. The
// protocol's client half — requests, validation, the cursor and the rule
// that moves it — is Source (source.go); a Follower is a Source plus a
// local chain plus a serve.Server.
//
// # Positions and re-bootstrap
//
// A replication position is a (stream, logical offset) pair minted by
// the primary: the stream identifies one primary incarnation, and the
// logical offset keeps advancing across the primary's checkpoint
// truncations. The primary answers 410 Gone for a position it no longer
// holds (it restarted, or the offset fell behind the retained WAL); the
// follower then pulls a fresh snapshot and re-tails from the position
// the snapshot names. Because record application is idempotent (frames
// are dup-skipped by observation URI), overlap between a snapshot and
// the tailed records is harmless — correctness never depends on exactly-
// once delivery, only on at-least-once.
//
// # Durability and resume
//
// With a snapshot path configured the follower persists its own chain:
// every applied batch is appended to a local WAL (one fsync per batch),
// the state is periodically checkpointed to a local snapshot generation,
// and a small position file records the primary position the local chain
// corresponds to. A restart rebuilds state from the local chain and
// resumes tailing at the recorded position — no re-bootstrap, no data
// transfer — unless the primary's stream changed, which degenerates to a
// fresh bootstrap.
//
// # Staleness
//
// The follower reports lag in records (primary frames minus applied
// frames) and wall-clock staleness (time since it was last level with
// the primary's durable end) through its /readyz and /v1/stats. With
// MaxStaleness set, readiness flips to 503 once the bound is exceeded —
// a dead primary takes its followers out of the read rotation only when
// their answers actually grow too stale, not the moment it dies.
package replica

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"rdfcube/internal/core"
	"rdfcube/internal/faultfs"
	"rdfcube/internal/obsv"
	"rdfcube/internal/serve"
	"rdfcube/internal/snapshot"
	"rdfcube/internal/wal"
)

// Metric names the follower reports through its Recorder.
const (
	CtrPolls      = "repl.polls"       // tail requests answered by the primary
	CtrRecords    = "repl.records"     // record frames applied
	CtrBootstraps = "repl.bootstraps"  // full snapshot bootstraps
	CtrReconnects = "repl.reconnects"  // link failures that triggered backoff
	CtrResumes    = "repl.resumes"     // restarts that resumed from the local chain
	GaugeLag      = "repl.lag.records" // current record lag behind the primary
	GaugeOffset   = "repl.offset"      // applied logical WAL offset
	GaugeStaleUS  = "repl.staleness.us"
	HistPollUS    = "repl.poll.us"  // one tail request, network included
	HistApplyUS   = "repl.apply.us" // applying one pulled batch
	HistBootUS    = "repl.bootstrap.us"
)

// Config tunes a Follower. Primary is required; everything else has
// serviceable defaults.
type Config struct {
	// Primary is the primary's base URL (no trailing slash needed).
	Primary string
	// Client issues the replication requests; nil builds a default.
	// Long-poll requests are bounded per-request with contexts, so a
	// client-wide Timeout must be 0 or comfortably above PollWait.
	Client *http.Client
	// FS is the local filesystem for the follower's own WAL/snapshot
	// chain; nil means the real disk.
	FS faultfs.FS
	// SnapshotPath is the local snapshot rotator base. Empty disables
	// persistence: the follower re-bootstraps on every start.
	SnapshotPath string
	// WALPath is the local WAL; empty means SnapshotPath+".wal" (or no
	// local WAL when SnapshotPath is empty too).
	WALPath string
	// StatePath is the replication position file; empty means
	// WALPath+".pos".
	StatePath string
	// Tasks selects the relationship types maintained on apply; zero
	// means all three.
	Tasks core.Tasks
	// Recorder receives the follower's counters, gauges and histograms
	// (and the serving layer's, via the embedded server). Nil disables.
	Recorder obsv.Recorder
	// MaxStaleness flips the follower's /readyz to 503 once it has not
	// been level with the primary for this long. Zero never trips.
	MaxStaleness time.Duration
	// PollWait is the long-poll budget the follower asks the primary for;
	// zero means 5s.
	PollWait time.Duration
	// HeaderTimeout bounds how long the default client waits for a
	// primary to START answering a request (http.Transport's
	// ResponseHeaderTimeout). It must comfortably exceed PollWait — the
	// primary legitimately sits on a tail request for the whole poll
	// budget before sending headers. Zero means 45s (or PollWait+15s if
	// larger). Ignored when Client is set.
	HeaderTimeout time.Duration
	// ReconnectBase/ReconnectMax tune the jittered, capped, doubling
	// reconnect backoff (serve.Backoff); zero means 200ms / 10s.
	ReconnectBase time.Duration
	ReconnectMax  time.Duration
	// CheckpointBytes is the local WAL size that triggers a local
	// snapshot checkpoint; zero means 8 MiB.
	CheckpointBytes int64
	// RequestTimeout and MaxInFlight pass through to the embedded
	// serve.Server.
	RequestTimeout time.Duration
	MaxInFlight    int
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, a ...any)
}

func (c Config) pollWait() time.Duration {
	if c.PollWait <= 0 {
		return 5 * time.Second
	}
	return c.PollWait
}

// defaultClient builds the follower's HTTP client. A bare &http.Client{}
// has no dial, TLS-handshake or response-header timeout at all: a
// primary whose listener accepts the connection but whose process never
// answers (half-open link after a partition, a wedged peer) would hang
// the replication goroutine forever, with no reconnect and no staleness
// progress. The response-header timeout bounds silence, not slow
// streaming — it must exceed the WAL long-poll budget, during which the
// primary legitimately says nothing before sending headers.
func defaultClient(pollWait, headerTimeout time.Duration) *http.Client {
	if headerTimeout <= 0 {
		headerTimeout = 45 * time.Second
		if min := pollWait + 15*time.Second; headerTimeout < min {
			headerTimeout = min
		}
	}
	return &http.Client{Transport: &http.Transport{
		DialContext:           (&net.Dialer{Timeout: 10 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
		TLSHandshakeTimeout:   10 * time.Second,
		ResponseHeaderTimeout: headerTimeout,
		MaxIdleConnsPerHost:   4,
	}}
}

func (c Config) checkpointBytes() int64 {
	if c.CheckpointBytes <= 0 {
		return 8 << 20
	}
	return c.CheckpointBytes
}

func (c Config) walPath() string {
	if c.WALPath != "" {
		return c.WALPath
	}
	if c.SnapshotPath != "" {
		return c.SnapshotPath + ".wal"
	}
	return ""
}

func (c Config) statePath() string {
	if c.StatePath != "" {
		return c.StatePath
	}
	if p := c.walPath(); p != "" {
		return p + ".pos"
	}
	return ""
}

// served pairs a server with its prebuilt handler so the hot path swaps
// both atomically and never rebuilds a mux per request.
type served struct {
	srv *serve.Server
	h   http.Handler
}

// Follower mirrors one primary. Build with New, drive with Run (usually
// in its own goroutine), serve Handler(), stop by canceling Run's
// context and calling Close.
type Follower struct {
	cfg   Config
	src   *Source
	fs    faultfs.FS
	rot   *snapshot.Rotator // nil without persistence
	wlog  *wal.Log          // nil without persistence
	state *serve.FollowerState

	cur atomic.Pointer[served]

	// pendingReplay carries local WAL records from openLocal to
	// resumeLocal (Run goroutine only).
	pendingReplay []wal.Record
	// holed says a batch was applied in memory that the local WAL failed
	// to take: the chain no longer reaches the cursor, so no position is
	// written until a local checkpoint or a bootstrap makes it whole again
	// (Run goroutine only).
	holed bool
}

// New builds a follower. It performs no I/O; Run does the bootstrap.
func New(cfg Config) (*Follower, error) {
	if cfg.Primary == "" {
		return nil, fmt.Errorf("replica: Config.Primary is required")
	}
	f := &Follower{
		cfg:   cfg,
		src:   &Source{Primary: cfg.Primary, Client: cfg.Client, Logf: cfg.Logf},
		fs:    cfg.FS,
		state: &serve.FollowerState{Leader: cfg.Primary, MaxStaleness: cfg.MaxStaleness},
	}
	if f.src.Client == nil {
		f.src.Client = defaultClient(cfg.pollWait(), cfg.HeaderTimeout)
	}
	if f.fs == nil {
		f.fs = faultfs.OS{}
	}
	if cfg.SnapshotPath != "" {
		f.rot = snapshot.NewRotator(f.fs, cfg.SnapshotPath)
		f.rot.Logf = cfg.Logf
	}
	return f, nil
}

// State exposes the live replication posture (lag, staleness, offsets).
func (f *Follower) State() *serve.FollowerState { return f.state }

// Server returns the current embedded server (nil before the first
// bootstrap or resume).
func (f *Follower) Server() *serve.Server {
	if s := f.cur.Load(); s != nil {
		return s.srv
	}
	return nil
}

// Handler serves the follower's read API. Before the first state exists
// it answers /healthz with "loading" and everything else 503, so a
// follower can bind its port before its first bootstrap completes.
func (f *Follower) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s := f.cur.Load(); s != nil {
			s.h.ServeHTTP(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			fmt.Fprintf(w, `{"status":"ok","state":"loading","role":"follower"}`)
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, `{"error":"follower has no state yet (bootstrapping from %s)"}`, f.cfg.Primary)
	})
}

func (f *Follower) logf(format string, a ...any) {
	if f.cfg.Logf != nil {
		f.cfg.Logf(format, a...)
	}
}

func (f *Follower) count(name string, d int64) {
	if f.cfg.Recorder != nil {
		f.cfg.Recorder.Count(name, d)
	}
}

func (f *Follower) gauge(name string, v float64) {
	if f.cfg.Recorder != nil {
		f.cfg.Recorder.Gauge(name, v)
	}
}

func (f *Follower) observe(name string, v int64) {
	if f.cfg.Recorder != nil {
		obsv.Observe(f.cfg.Recorder, name, v)
	}
}

// Run drives replication until ctx is canceled: resume from the local
// chain if one exists, then bootstrap-or-tail forever, reconnecting with
// jittered capped backoff (the breaker's backoff helper) after link
// failures. On exit it checkpoints the local chain so the next start
// resumes instead of re-bootstrapping.
func (f *Follower) Run(ctx context.Context) error {
	if err := f.openLocal(); err != nil {
		return err
	}
	if err := f.resumeLocal(); err != nil {
		// A broken local chain is not fatal: log it and bootstrap fresh.
		f.logf("replica: local resume failed (%v); bootstrapping from %s", err, f.cfg.Primary)
	}

	bo := serve.Backoff{Base: f.cfg.ReconnectBase, Max: f.cfg.ReconnectMax}
	if bo.Base <= 0 {
		bo.Base = 200 * time.Millisecond
	}
	if bo.Max <= 0 {
		bo.Max = 10 * time.Second
	}
	for ctx.Err() == nil {
		progressed, err := f.session(ctx)
		if ctx.Err() != nil {
			break
		}
		if progressed {
			bo.Reset()
		}
		if err != nil {
			f.state.SetConnected(false)
			d := bo.Next()
			f.count(CtrReconnects, 1)
			f.logf("replica: link to %s: %v; reconnecting in %s", f.cfg.Primary, err, d.Round(time.Millisecond))
			select {
			case <-ctx.Done():
			case <-time.After(d):
			}
		}
	}
	f.shutdown()
	return ctx.Err()
}

// shutdown checkpoints the local chain and closes the local WAL.
func (f *Follower) shutdown() {
	f.state.SetConnected(false)
	if srv := f.Server(); srv != nil && f.rot != nil {
		if err := f.checkpointLocal(srv); err != nil {
			f.logf("replica: final local checkpoint failed (WAL still covers the chain): %v", err)
		}
	}
	if f.wlog != nil {
		f.wlog.Close()
		f.wlog = nil
	}
}

// openLocal opens (or creates) the follower's local WAL.
func (f *Follower) openLocal() error {
	path := f.cfg.walPath()
	if path == "" {
		return nil
	}
	wlog, recs, err := wal.Open(f.fs, path)
	if errors.Is(err, wal.ErrCorrupt) {
		q := path + ".corrupt"
		if rerr := f.fs.Rename(path, q); rerr != nil {
			return fmt.Errorf("replica: quarantining corrupt local wal %s: %v (original: %w)", path, rerr, err)
		}
		f.logf("replica: local wal %s corrupt (%v); quarantined to %s", path, err, q)
		wlog, recs, err = wal.Open(f.fs, path)
	}
	if err != nil {
		return fmt.Errorf("replica: opening local wal %s: %w", path, err)
	}
	f.wlog = wlog
	f.pendingReplay = recs
	return nil
}

// resumeLocal rebuilds state from the local snapshot chain + WAL and
// restores the persisted replication position. Absence of any of the
// pieces is not an error — it just means the next session bootstraps.
func (f *Follower) resumeLocal() error {
	if f.rot == nil {
		return nil
	}
	sn, from, err := f.rot.Load()
	switch {
	case err == nil:
	case errors.Is(err, fs.ErrNotExist):
		return nil
	default:
		return err
	}
	srv, err := f.buildServer(sn)
	if err != nil {
		return err
	}
	if len(f.pendingReplay) > 0 {
		if _, err := srv.Replay(f.pendingReplay); err != nil {
			return fmt.Errorf("replaying local wal: %w", err)
		}
	}
	var pos Cursor
	if data, err := f.fs.ReadFile(f.cfg.statePath()); err == nil {
		if jerr := json.Unmarshal(data, &pos); jerr != nil {
			pos = Cursor{} // torn position file: bootstrap decides
		}
	}
	f.src.Seek(pos)
	f.install(srv)
	f.state.SetOffset(pos.Offset)
	f.count(CtrResumes, 1)
	f.logf("replica: resumed %d observations from %s (+%d local wal records), position %s@%d",
		sn.Space.N(), from, len(f.pendingReplay), pos.Stream, pos.Offset)
	f.pendingReplay = nil
	return nil
}

// install swaps in a new embedded server and prebuilt handler, shutting
// the previous incarnation's run context down.
func (f *Follower) install(srv *serve.Server) {
	old := f.cur.Swap(&served{srv: srv, h: srv.Handler()})
	if old != nil {
		old.srv.BeginShutdown()
	}
}

// buildServer wraps a decoded snapshot in a read-only replica server.
func (f *Follower) buildServer(sn *snapshot.Snapshot) (*serve.Server, error) {
	cfg := serve.Config{
		Tasks:          f.cfg.Tasks,
		Recorder:       f.cfg.Recorder,
		RequestTimeout: f.cfg.RequestTimeout,
		MaxInFlight:    f.cfg.MaxInFlight,
		Logf:           f.cfg.Logf,
		Follower:       f.state,
	}
	if f.rot != nil {
		rot := f.rot
		cfg.SnapshotGen = func() uint64 { g, _ := rot.CurrentGen(); return g }
	}
	return serve.New(sn, cfg)
}

// session runs one connected stretch: bootstrap when there is no usable
// position, then tail until an error. It reports whether any request
// succeeded (so the caller resets its backoff) and the error that ended
// the session (nil only on ctx cancellation).
func (f *Follower) session(ctx context.Context) (progressed bool, err error) {
	if f.Server() == nil || f.src.Cursor().Stream == "" {
		if err := f.bootstrap(ctx); err != nil {
			return false, err
		}
		progressed = true
	}
	for ctx.Err() == nil {
		switch err := f.pollOnce(ctx); {
		case err == nil:
			progressed = true
		case errors.Is(err, ErrGone):
			f.logf("%v", err)
			if err := f.bootstrap(ctx); err != nil {
				return progressed, err
			}
			progressed = true
		default:
			return progressed, err
		}
	}
	return progressed, nil
}

// bootstrap pulls the primary's image and commits it: the local chain
// first, the embedded server second. The Source moves its cursor to the
// image's position only once all of that has succeeded, so a follower
// whose disk refuses the new chain keeps its old state AND its old
// cursor, and tries again.
func (f *Follower) bootstrap(ctx context.Context) error {
	start := time.Now()
	return f.src.Bootstrap(ctx, func(img Image) error {
		srv, err := f.buildServer(img.Snapshot)
		if err != nil {
			return err
		}
		// Persist the new chain before serving it: local generation first,
		// then a truncated local WAL (the image covers everything), then the
		// position file. A crash between the steps re-bootstraps — never
		// serves a chain that disagrees with its position.
		if f.rot != nil {
			if err := f.rot.Write(img.Data); err != nil {
				return fmt.Errorf("committing local generation: %w", err)
			}
		}
		if f.wlog != nil {
			if err := f.wlog.Truncate(); err != nil {
				return fmt.Errorf("resetting local wal: %w", err)
			}
		}
		if err := f.writePosition(img.At); err != nil {
			return err
		}
		f.holed = false

		f.install(srv)
		f.state.SetOffset(img.At.Offset)
		f.state.MarkBootstrap()
		f.state.SetConnected(true)
		f.count(CtrBootstraps, 1)
		f.observe(HistBootUS, time.Since(start).Microseconds())
		f.logf("replica: bootstrapped %d observations from %s (generation %q, stream %s, position %d) in %s",
			img.Snapshot.Space.N(), f.cfg.Primary, img.Generation, img.At.Stream, img.At.Offset,
			time.Since(start).Round(time.Millisecond))
		return nil
	})
}

// pollOnce issues one tail request and commits whatever it returns.
func (f *Follower) pollOnce(ctx context.Context) error {
	wait := f.cfg.pollWait()
	reqCtx, cancel := context.WithTimeout(ctx, wait+15*time.Second)
	defer cancel()
	start := time.Now()
	var applying time.Duration
	tail, err := f.src.Poll(reqCtx, wait, func(recs []wal.Record) error {
		t := time.Now()
		err := f.apply(recs)
		applying = time.Since(t)
		return err
	})
	if err != nil {
		return err
	}
	f.observe(HistPollUS, (time.Since(start) - applying).Microseconds())
	f.state.SetConnected(true)
	f.count(CtrPolls, 1)
	if tail.Records > 0 {
		f.applied(tail.Records, applying)
	}
	f.state.SetLagRecords(tail.Lag)
	f.gauge(GaugeLag, float64(tail.Lag))
	if tail.CaughtUp {
		f.state.MarkCaughtUp()
	}
	f.gauge(GaugeStaleUS, float64(f.state.Staleness().Microseconds()))
	return nil
}

// apply is the commit of one pulled batch: durable on the local chain,
// then applied to the embedded server. Returning nil is what lets the
// Source advance over the batch.
func (f *Follower) apply(recs []wal.Record) error {
	if f.wlog != nil {
		if err := f.wlog.AppendBatch(recs); err != nil {
			// The local disk failed; state in memory is still correct, so
			// keep serving — but the chain no longer covers the position, so
			// drop it and write none until the chain is whole again: the next
			// restart re-bootstraps instead of resuming a hole.
			f.logf("replica: local wal append failed (%v); next restart will re-bootstrap", err)
			f.holed = true
			if path := f.cfg.statePath(); path != "" {
				_ = f.fs.Remove(path) // a missing position file IS the intended state
			}
		}
	}
	// Dup-skips are expected after re-pulls; serve.wal.replayed counts them.
	if _, err := f.Server().ApplyReplicated(recs); err != nil {
		return fmt.Errorf("%w (apply at %d: %v)", ErrGone, f.src.Cursor().Offset, err)
	}
	return nil
}

// applied records a committed batch: the position file follows the
// cursor, and the local WAL is checkpointed once it is long enough.
func (f *Follower) applied(n int, took time.Duration) {
	cur := f.src.Cursor()
	f.state.SetOffset(cur.Offset)
	if !f.holed {
		if err := f.writePosition(cur); err != nil {
			f.logf("replica: persisting position: %v", err)
		}
	}
	f.count(CtrRecords, int64(n))
	f.gauge(GaugeOffset, float64(cur.Offset))
	f.observe(HistApplyUS, took.Microseconds())
	if f.wlog != nil && f.wlog.RecordBytes() >= f.cfg.checkpointBytes() {
		if err := f.checkpointLocal(f.Server()); err != nil {
			f.logf("replica: local checkpoint failed (chain keeps growing): %v", err)
		}
	}
}

// checkpointLocal commits the follower's current state as a local
// snapshot generation and truncates the local WAL. Called only from the
// Run goroutine, so no records land between the encode and the truncate.
func (f *Follower) checkpointLocal(srv *serve.Server) error {
	if f.rot == nil {
		return nil
	}
	data, err := srv.EncodeSnapshot()
	if err != nil {
		return err
	}
	if err := f.rot.Write(data); err != nil {
		return err
	}
	if f.wlog != nil {
		if err := f.wlog.Truncate(); err != nil {
			return err
		}
	}
	if err := f.writePosition(f.src.Cursor()); err != nil {
		return err
	}
	f.holed = false // the generation holds everything the memory does
	return nil
}

// writePosition persists a replication position (create + write +
// fsync). The file is a hint: a torn write just means re-bootstrap.
func (f *Follower) writePosition(pos Cursor) error {
	path := f.cfg.statePath()
	if path == "" {
		return nil
	}
	data, err := json.Marshal(pos)
	if err != nil {
		return err
	}
	file, err := f.fs.Create(path)
	if err != nil {
		return err
	}
	if _, err := file.Write(data); err != nil {
		file.Close()
		return err
	}
	if err := file.Sync(); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}
