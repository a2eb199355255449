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
// With a snapshot path configured the follower keeps its own chain, the
// same snapshot generations plus write-ahead log a primary keeps, through
// the primary's code: serve.Open resumes it, the embedded server owns
// the local log and appends every pulled batch to it
// (serve.Server.ApplyReplicated, one fsync per batch), and
// serve.Server.CheckpointWith commits a local generation and truncates
// the log. A small position file records the primary position the chain
// corresponds to. A restart resumes tailing at the recorded position — no
// re-bootstrap, no data transfer — unless the primary's stream changed,
// which degenerates to a fresh bootstrap. A follower whose disk refused
// a batch keeps following in memory (its server turns degraded) and
// keeps no position until a checkpoint or a bootstrap makes the chain
// whole again, so a restart never resumes over the missing batch.
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
	CtrPolls      = "repl.polls"                // tail requests answered by the primary
	CtrRecords    = "repl.records"              // record frames applied
	CtrBootstraps = serve.CtrFollowerBootstraps // full snapshot bootstraps
	CtrReconnects = "repl.reconnects"           // link failures that triggered backoff
	CtrResumes    = "repl.resumes"              // restarts that resumed from the local chain
	GaugeLag      = "repl.lag.records"          // current record lag behind the primary
	GaugeOffset   = "repl.offset"               // applied logical WAL offset
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
	// WALPath is the local WAL; empty means SnapshotPath+".wal". It needs
	// SnapshotPath: without a snapshot chain no checkpoint would ever
	// truncate the log, so New refuses it alone. The replication position
	// file sits beside it at WALPath+".pos".
	WALPath string
	// Tasks selects the relationship types maintained on apply; zero
	// means all three.
	Tasks core.Tasks
	// Recorder is the follower's one registry: its counters, gauges and
	// histograms, and those of every embedded server it installs. /readyz
	// and /v1/stats read the replication counts back from it. Nil means
	// the follower makes its own.
	Recorder *obsv.Collector
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
	return c.SnapshotPath + ".wal"
}

func (c Config) statePath() string { return c.walPath() + ".pos" }

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
	rec   *obsv.Collector // cfg.Recorder, or the follower's own
	src   *Source
	fs    faultfs.FS
	rot   *snapshot.Rotator // nil without persistence
	state *serve.FollowerState

	cur atomic.Pointer[served]
}

// New builds a follower. It performs no I/O; Run does the bootstrap.
func New(cfg Config) (*Follower, error) {
	if cfg.Primary == "" {
		return nil, fmt.Errorf("replica: Config.Primary is required")
	}
	if cfg.WALPath != "" && cfg.SnapshotPath == "" {
		return nil, fmt.Errorf("replica: a local WAL needs a snapshot path: without a snapshot chain no checkpoint ever truncates the log")
	}
	if cfg.Recorder == nil {
		cfg.Recorder = obsv.NewCollector()
	}
	f := &Follower{
		cfg:   cfg,
		rec:   cfg.Recorder,
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

// Bootstraps reports how many snapshot bootstraps the follower has done,
// read from its registry.
func (f *Follower) Bootstraps() int64 { return f.rec.Counter(CtrBootstraps).Load() }

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

// Run drives replication until ctx is canceled: resume from the local
// chain if one exists, then bootstrap-or-tail forever, reconnecting with
// jittered capped backoff (the breaker's backoff helper) after link
// failures. On exit it checkpoints the local chain so the next start
// resumes instead of re-bootstrapping.
func (f *Follower) Run(ctx context.Context) error {
	f.resume()

	bo := serve.Backoff{Base: f.cfg.ReconnectBase, Max: f.cfg.ReconnectMax}
	if bo.Base <= 0 {
		bo.Base = 200 * time.Millisecond
	}
	if bo.Max <= 0 {
		bo.Max = 10 * time.Second
	}
	for ctx.Err() == nil {
		progressed, err := f.session(ctx)
		// Every pass, so the gauge keeps growing while the primary is
		// unreachable, as /readyz's staleness does.
		f.rec.Gauge(GaugeStaleUS, float64(f.state.Staleness().Microseconds()))
		if ctx.Err() != nil {
			break
		}
		if progressed {
			bo.Reset()
		}
		if err != nil {
			f.state.SetConnected(false)
			d := bo.Next()
			f.rec.Count(CtrReconnects, 1)
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
	srv := f.Server()
	if srv == nil || f.rot == nil {
		return
	}
	if err := f.checkpoint(srv); err != nil {
		f.logf("replica: final local checkpoint failed (WAL still covers the chain): %v", err)
	}
	srv.WAL().Close()
}

// resume rebuilds state from the local chain with serve.Open, the boot
// every node shares, and restores the persisted replication position.
// Nothing to load, or a chain that does not load, leaves the follower
// without state: the first session bootstraps.
func (f *Follower) resume() {
	if f.rot == nil {
		return
	}
	srv, rec, err := serve.Open(f.rot, f.cfg.walPath(), f.serveConfig())
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) || rec.Snapshot != "" {
			f.logf("replica: local resume failed (%v); bootstrapping from %s", err, f.cfg.Primary)
		}
		return
	}
	var pos Cursor
	if rec.QuarantinedWAL != "" {
		// The records the unreadable log held are gone from the chain, so
		// the position no longer describes it: drop it, and the first
		// session bootstraps instead of resuming a hole.
		_ = f.fs.Remove(f.cfg.statePath()) // a missing position file IS the intended state
	} else if data, err := f.fs.ReadFile(f.cfg.statePath()); err == nil {
		if jerr := json.Unmarshal(data, &pos); jerr != nil {
			pos = Cursor{} // torn position file: bootstrap decides
		}
	}
	f.src.Seek(pos)
	f.install(srv)
	f.state.SetOffset(pos.Offset)
	f.rec.Count(CtrResumes, 1)
	f.logf("replica: resumed from %s (+%d local wal records), position %s@%d",
		rec.Snapshot, rec.Replayed+rec.Skipped, pos.Stream, pos.Offset)
}

// install swaps in a new embedded server and prebuilt handler, then shuts
// the previous incarnation down: its run context is canceled and its log
// handle closed. Only the Run goroutine (the caller) writes through a
// follower's log, so nothing appends through the old handle any more.
func (f *Follower) install(srv *serve.Server) {
	old := f.cur.Swap(&served{srv: srv, h: srv.Handler()})
	if old != nil {
		old.srv.BeginShutdown()
		if wlog := old.srv.WAL(); wlog != nil {
			wlog.Close()
		}
	}
}

// serveConfig configures the embedded server: read-only replica mode,
// reporting the follower's replication state.
func (f *Follower) serveConfig() serve.Config {
	return serve.Config{
		Tasks:          f.cfg.Tasks,
		Recorder:       f.rec,
		RequestTimeout: f.cfg.RequestTimeout,
		MaxInFlight:    f.cfg.MaxInFlight,
		Logf:           f.cfg.Logf,
		Follower:       f.state,
	}
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
		cfg := f.serveConfig()
		if f.rot != nil {
			wlog, err := f.commitChain(img)
			if err != nil {
				return err
			}
			cfg.WAL = wlog
			cfg.SnapshotGen = func() uint64 { g, _ := f.rot.CurrentGen(); return g }
		}
		srv, err := serve.New(img.Snapshot, cfg)
		if err != nil {
			if cfg.WAL != nil {
				cfg.WAL.Close()
			}
			return err
		}
		f.install(srv)
		f.state.SetOffset(img.At.Offset)
		f.state.MarkCaughtUp() // a fresh image IS the primary's state as of moments ago
		f.state.SetConnected(true)
		f.rec.Count(CtrBootstraps, 1)
		f.rec.Observe(HistBootUS, time.Since(start).Microseconds())
		f.logf("replica: bootstrapped %d observations from %s (generation %q, stream %s, position %d) in %s",
			img.Snapshot.Space.N(), f.cfg.Primary, img.Generation, img.At.Stream, img.At.Offset,
			time.Since(start).Round(time.Millisecond))
		return nil
	})
}

// commitChain persists a bootstrap image as the local chain before it is
// served: the image as a local generation, then an emptied log (the image
// covers every record) behind a fresh handle for the new server — the
// old server keeps its own handle until install closes it — then the
// position file. A crash between the steps re-bootstraps, never serves a
// chain that disagrees with its position.
func (f *Follower) commitChain(img Image) (*wal.Log, error) {
	if err := f.rot.Write(img.Data); err != nil {
		return nil, fmt.Errorf("committing local generation: %w", err)
	}
	wlog, _, err := wal.Open(f.fs, f.cfg.walPath())
	if err != nil {
		return nil, fmt.Errorf("opening local wal: %w", err)
	}
	if err = wlog.Truncate(); err == nil {
		err = f.writePosition(img.At)
	}
	if err != nil {
		wlog.Close()
		return nil, fmt.Errorf("resetting local chain: %w", err)
	}
	return wlog, nil
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
	f.rec.Observe(HistPollUS, (time.Since(start) - applying).Microseconds())
	f.state.SetConnected(true)
	f.rec.Count(CtrPolls, 1)
	if tail.Records > 0 {
		f.applied(tail.Records, applying)
	}
	f.state.SetLagRecords(tail.Lag)
	f.rec.Gauge(GaugeLag, float64(tail.Lag))
	if tail.CaughtUp {
		f.state.MarkCaughtUp()
	}
	f.rec.Gauge(GaugeStaleUS, float64(f.state.Staleness().Microseconds()))
	return nil
}

// apply is the commit of one pulled batch: the embedded server appends
// it to its local log, then applies it. Returning nil is what lets the
// Source advance over the batch.
func (f *Follower) apply(recs []wal.Record) error {
	srv := f.Server()
	degraded := srv.Degraded()
	// Dup-skips are expected after re-pulls; serve.wal.replayed counts them.
	_, err := srv.ApplyReplicated(recs)
	if !degraded && srv.Degraded() {
		// The local disk refused the batch. Memory is still right, so keep
		// serving — but the chain no longer reaches the cursor, so drop the
		// position and write none until a checkpoint or a bootstrap makes
		// the chain whole: a restart re-bootstraps instead of resuming a
		// hole.
		f.logf("replica: local wal append failed; next restart will re-bootstrap unless a checkpoint lands first")
		_ = f.fs.Remove(f.cfg.statePath()) // a missing position file IS the intended state
	}
	if err != nil {
		return fmt.Errorf("%w (apply at %d: %v)", ErrGone, f.src.Cursor().Offset, err)
	}
	return nil
}

// applied records a committed batch: the position file follows the
// cursor while the local log takes every batch, and the local chain is
// checkpointed once the log is long enough.
func (f *Follower) applied(n int, took time.Duration) {
	cur := f.src.Cursor()
	srv := f.Server()
	f.state.SetOffset(cur.Offset)
	if !srv.Degraded() {
		if err := f.writePosition(cur); err != nil {
			f.logf("replica: persisting position: %v", err)
		}
	}
	f.rec.Count(CtrRecords, int64(n))
	f.rec.Gauge(GaugeOffset, float64(cur.Offset))
	f.rec.Observe(HistApplyUS, took.Microseconds())
	if wlog := srv.WAL(); wlog != nil && wlog.RecordBytes() >= f.cfg.checkpointBytes() {
		if err := f.checkpoint(srv); err != nil {
			f.logf("replica: local checkpoint failed (chain keeps growing): %v", err)
		}
	}
}

// checkpoint commits the follower's state as a local snapshot generation
// through the server's own checkpoint, which truncates the log once the
// generation is durable, then records the position the generation holds.
// Called only from the Run goroutine, so no batch lands between the
// encode and the truncate.
func (f *Follower) checkpoint(srv *serve.Server) error {
	if err := srv.CheckpointWith(f.rot.Write); err != nil {
		return err
	}
	return f.writePosition(f.src.Cursor())
}

// writePosition persists a replication position (create + write +
// fsync). The file is a hint: a torn write just means re-bootstrap.
func (f *Follower) writePosition(pos Cursor) error {
	if f.rot == nil {
		return nil
	}
	data, err := json.Marshal(pos)
	if err != nil {
		return err
	}
	file, err := f.fs.Create(f.cfg.statePath())
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
