// Command cubed is the relationship daemon: it computes (or reloads) the
// containment/complementarity sets over a QB corpus once, then serves
// them over HTTP while accepting live observation inserts — the paper's
// batch job turned into a long-running service.
//
// Usage:
//
//	cubed -load corpus.ttl -snapshot idx.bin -addr :8080
//	cubed -gen synthetic -n 10000 -snapshot idx.bin -once        # build only
//	cubed -snapshot idx.bin -check                               # verify
//	cubed -snapshot idx.bin -addr :8080 -checkpoint 2m
//
// Startup: the snapshot is resolved through generation rotation — the
// CURRENT pointer's generation, else older generations newest-first,
// else a legacy plain file — quarantining (never deleting) any corrupt
// candidate along the way. When nothing loads, the corpus is loaded or
// generated, the cubeMasking kernel (§3.3) runs, and the state is
// committed as the first generation. The write-ahead log (-wal,
// defaulting to <snapshot>.wal) is then replayed on top, so inserts
// acknowledged before a crash survive the restart. While serving, every
// accepted insert is fsynced to the WAL before its 201; the state is
// checkpointed on the -checkpoint interval and once more during graceful
// shutdown (SIGINT/SIGTERM) — each checkpoint commits a new generation
// atomically and only then truncates the WAL. If the WAL fails mid-flight
// the daemon degrades to read-only: queries keep working, inserts get 503.
//
// The main address serves the /v1 query API (see internal/serve) next to
// the observability endpoints (/metrics, /metrics.json, /debug/vars,
// /debug/pprof/) backed by the same collector the algorithms and handlers
// report into.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"rdfcube/internal/core"
	"rdfcube/internal/faultfs"
	"rdfcube/internal/gen"
	"rdfcube/internal/obsv"
	"rdfcube/internal/qb"
	"rdfcube/internal/replica"
	"rdfcube/internal/serve"
	"rdfcube/internal/snapshot"
	"rdfcube/internal/wal"

	rdfcube "rdfcube"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// run is the daemon body; ctx cancellation is treated like a termination
// signal (tests use it in place of SIGTERM).
func run(parent context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cubed", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		load     = fs.String("load", "", "Turtle corpus to load when no snapshot exists yet")
		genK     = fs.String("gen", "", "generate a corpus instead of loading: example, real, synthetic")
		n        = fs.Int("n", 10000, "observation count for -gen real/synthetic")
		seed     = fs.Int64("seed", 1, "generator seed")
		taskStr  = fs.String("tasks", "all", "relationship tasks: all, or a comma list of full,partial,compl")
		snapPath = fs.String("snapshot", "", "snapshot base path: generations <path>.NNNNNN rotate under a <path>.CURRENT pointer")
		walPath  = fs.String("wal", "", "write-ahead log path for live inserts (default <snapshot>.wal; \"off\" disables durability)")
		addr     = fs.String("addr", ":8080", "HTTP listen address (port 0 for ephemeral)")
		interval = fs.Duration("checkpoint", 5*time.Minute, "checkpoint interval while serving (0 disables)")
		timeout  = fs.Duration("timeout", 5*time.Second, "per-request timeout")
		inflight = fs.Int("max-inflight", 128, "max concurrently executing requests before 429 shedding")
		once     = fs.Bool("once", false, "compute or load the snapshot, write it, and exit without serving")
		check    = fs.Bool("check", false, "load the snapshot, verify its pair sets equal a fresh cubeMasking run over its space, and exit")
		shutTO   = fs.Duration("shutdown-timeout", 10*time.Second, "bound on the final shutdown checkpoint (0 waits forever; a hung disk then hangs shutdown)")
		traceN   = fs.Int("trace-ring", 128, "recent request traces retained for GET /debug/traces")
		slowTh   = fs.Duration("slow-threshold", 0, "write requests at least this slow to the slow-query log as JSON lines (0 disables)")
		slowPath = fs.String("slow-log", "", "slow-query log file (default stderr when -slow-threshold is set)")
		dsCreate = fs.Bool("allow-dataset-create", true, "serve POST /v1/datasets (live schema registration; needed as a migration target)")
		follow   = fs.String("follow", "", "run as a read replica of this primary base URL (e.g. http://leader:8080)")
		maxStale = fs.Duration("max-staleness", 0, "follower readiness bound: /readyz answers 503 once replication staleness exceeds this (0 never trips)")
		pollWait = fs.Duration("poll-wait", 5*time.Second, "follower long-poll budget per WAL tail request")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	logf := func(format string, a ...any) { fmt.Fprintf(stderr, "cubed: "+format+"\n", a...) }

	tasks, err := parseTasks(*taskStr)
	if err != nil {
		logf("%v", err)
		return 2
	}
	col := obsv.NewCollector()
	disk := faultfs.OS{}

	// The termination context is armed before the first compute: a SIGTERM
	// during the startup batch pass (minutes on a large corpus) cancels it
	// at the kernel's next guard poll instead of being ignored until
	// serving starts. Tests cancel parent in place of a signal.
	ctx, stop := signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *follow != "" {
		return runFollower(ctx, stop, followerFlags{
			primary:  strings.TrimRight(*follow, "/"),
			snapPath: *snapPath,
			walPath:  *walPath,
			addr:     *addr,
			maxStale: *maxStale,
			pollWait: *pollWait,
			timeout:  *timeout,
			inflight: *inflight,
			tasks:    tasks,
		}, disk, col, logf)
	}

	// The rotator owns all snapshot artifacts around the base path:
	// generations, the CURRENT pointer, quarantined corpses, and the
	// legacy plain file a pre-rotation daemon may have left behind.
	var rot *snapshot.Rotator
	if *snapPath != "" {
		rot = snapshot.NewRotator(disk, *snapPath)
		rot.Logf = logf
	}

	if *check {
		if rot == nil {
			logf("-check requires -snapshot")
			return 2
		}
		return runCheck(rot, tasks, stdout, logf)
	}

	sn, err := loadOrCompute(ctx, rot, *load, *genK, *n, *seed, tasks, col, logf)
	if err != nil {
		if errors.Is(err, core.ErrCanceled) {
			logf("startup compute canceled by termination signal; nothing written")
			return 130
		}
		logf("%v", err)
		return 1
	}
	if *once {
		fmt.Fprintf(stdout, "snapshot ready: %d observations, %d/%d/%d full/partial/compl pairs\n",
			sn.Space.N(), len(sn.Result.FullSet), len(sn.Result.PartialSet), len(sn.Result.ComplSet))
		return 0
	}

	// Open the write-ahead log and recover whatever suffix survived the
	// last run. A log whose header is unreadable is quarantined — the
	// evidence survives — and a fresh log replaces it; replay failures
	// (the log disagrees with the snapshot) stop the daemon instead of
	// silently dropping acknowledged writes.
	wpath := *walPath
	if wpath == "" && *snapPath != "" {
		wpath = *snapPath + ".wal"
	}
	var wlog *wal.Log
	var recs []wal.Record
	if wpath != "" && wpath != "off" {
		wlog, recs, err = wal.Open(disk, wpath)
		if errors.Is(err, wal.ErrCorrupt) {
			q := wpath + ".corrupt"
			if rerr := disk.Rename(wpath, q); rerr != nil {
				logf("quarantining corrupt wal %s: %v", wpath, rerr)
				return 1
			}
			logf("wal %s is corrupt (%v); quarantined to %s, starting a fresh log", wpath, err, q)
			wlog, recs, err = wal.Open(disk, wpath)
		}
		if err != nil {
			logf("opening wal %s: %v", wpath, err)
			return 1
		}
		defer wlog.Close()
		if wlog.RepairedBytes() > 0 {
			logf("wal %s: truncated %d torn trailing bytes from an interrupted append", wpath, wlog.RepairedBytes())
		}
	}

	// Slow-query log destination: an explicit file, else stderr whenever a
	// threshold is set.
	var slowLog io.Writer
	if *slowTh > 0 {
		slowLog = stderr
		if *slowPath != "" {
			f, err := os.OpenFile(*slowPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				logf("opening slow-query log %s: %v", *slowPath, err)
				return 1
			}
			defer f.Close()
			slowLog = f
		}
	}

	var snapGen func() uint64
	if rot != nil {
		snapGen = func() uint64 { g, _ := rot.CurrentGen(); return g }
	}
	// Dataset registration needs a synchronous checkpoint on a durable
	// server (registrations do not ride the WAL; the checkpoint is what
	// makes them crash-safe before they are published). Wire it through
	// the rotator when one exists; srv is captured after serve.New fills
	// it in.
	var srv *serve.Server
	var ckptNow func() error
	if rot != nil {
		ckptNow = func() error { return srv.CheckpointWith(rot.Write) }
	}
	srv, err = serve.New(sn, serve.Config{
		Tasks:                tasks,
		Recorder:             col,
		RequestTimeout:       *timeout,
		MaxInFlight:          *inflight,
		WAL:                  wlog,
		SnapshotGen:          snapGen,
		CheckpointNow:        ckptNow,
		DisableDatasetCreate: !*dsCreate,
		Logf:                 logf,
		TraceRing:            *traceN,
		SlowThreshold:        *slowTh,
		SlowLog:              slowLog,
	})
	if err != nil {
		logf("%v", err)
		return 1
	}
	if len(recs) > 0 {
		applied, err := srv.Replay(recs)
		if err != nil {
			logf("replaying wal %s: %v", wpath, err)
			return 1
		}
		logf("replayed %d WAL records from %s (%d already in the snapshot)", applied, wpath, len(recs)-applied)
	}

	// The query API and the PR-1 observability surface share the address.
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	obsHandler := obsv.Handler(col)
	mux.Handle("/metrics", obsHandler)
	mux.Handle("/metrics.json", obsHandler)
	mux.Handle("/debug/", obsHandler)
	// The trace ring lives on the serve.Server, not the collector, so it
	// needs an explicit mount in front of the /debug/ catch-all.
	mux.Handle("/debug/traces", srv.Handler())

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logf("listen: %v", err)
		return 1
	}
	httpSrv := &http.Server{Handler: mux}
	go func() { _ = httpSrv.Serve(ln) }()
	logf("serving on %s (%d observations, %d lattice cubes)", ln.Addr(), sn.Space.N(), srv.Incremental().Lattice().Len())

	// checkpoint commits a new snapshot generation, optionally bounded by
	// a wall-clock deadline. CheckpointWith holds the server's checkpoint
	// mutex, and shutdown joins the timer goroutine before its own
	// checkpoint, so a SIGTERM arriving mid-way through a timer checkpoint
	// runs the shutdown checkpoint after it instead of racing it; the
	// WAL is truncated only after the generation commits. The shutdown
	// call passes -shutdown-timeout: an fsync wedged against a dead disk
	// is uninterruptible, and the daemon must exit anyway — the WAL covers
	// every acknowledged write, so abandoning the checkpoint loses nothing.
	checkpoint := func(reason string, bound time.Duration) {
		if rot == nil {
			return
		}
		start := time.Now()
		if err := srv.CheckpointWithin(bound, rot.Write); err != nil {
			logf("checkpoint (%s): %v", reason, err)
			return
		}
		logf("checkpoint (%s) written to %s in %s", reason, *snapPath, time.Since(start).Round(time.Millisecond))
	}

	timerDone := make(chan struct{})
	go func() {
		defer close(timerDone)
		if *interval <= 0 || rot == nil {
			return
		}
		t := time.NewTicker(*interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				if ctx.Err() != nil { // select picks at random when both are ready
					return
				}
				checkpoint("timer", 0)
			}
		}
	}()

	<-ctx.Done()
	stop()
	logf("shutting down, draining in-flight requests")
	// Release parked /v1/wal long-polls FIRST: Shutdown waits for
	// in-flight requests, and a caught-up follower's poll would otherwise
	// hold it for up to the poll budget.
	srv.BeginShutdown()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logf("shutdown: %v", err)
	}
	// Join the timer goroutine first: a timer checkpoint queued on the
	// checkpoint mutex could otherwise win it after the shutdown
	// checkpoint and commit a generation after "bye". One wedged in an
	// fsync is abandoned on the same bound as the shutdown checkpoint,
	// which could only queue behind it.
	var overdue <-chan time.Time
	if *shutTO > 0 {
		overdue = time.After(*shutTO)
	}
	select {
	case <-timerDone:
		checkpoint("shutdown", *shutTO)
	case <-overdue:
		logf("checkpoint (shutdown): a timer checkpoint is still running after %v; abandoned, the wal still covers acknowledged writes", *shutTO)
	}
	logf("bye")
	return 0
}

// followerFlags carries the subset of flags a read replica uses.
type followerFlags struct {
	primary  string
	snapPath string
	walPath  string
	addr     string
	maxStale time.Duration
	pollWait time.Duration
	timeout  time.Duration
	inflight int
	tasks    core.Tasks
}

// runFollower runs cubed as a read replica: bootstrap from the primary's
// snapshot, tail its WAL, serve the read API locally, refuse writes with
// a Leader hint. The follower persists its own snapshot/WAL chain under
// -snapshot/-wal so a restart resumes from the last applied offset
// instead of re-transferring the whole image; `-wal off` disables the
// chain (every restart then re-bootstraps).
func runFollower(ctx context.Context, stop func(), ff followerFlags, disk faultfs.FS, col *obsv.Collector, logf func(string, ...any)) int {
	snapPath, walPath := ff.snapPath, ff.walPath
	if walPath == "off" {
		snapPath, walPath = "", ""
		logf("follower: -wal off disables the local chain; every restart re-bootstraps")
	}
	fol, err := replica.New(replica.Config{
		Primary:        ff.primary,
		FS:             disk,
		SnapshotPath:   snapPath,
		WALPath:        walPath,
		Tasks:          ff.tasks,
		Recorder:       col,
		MaxStaleness:   ff.maxStale,
		PollWait:       ff.pollWait,
		RequestTimeout: ff.timeout,
		MaxInFlight:    ff.inflight,
		Logf:           logf,
	})
	if err != nil {
		logf("%v", err)
		return 2
	}

	mux := http.NewServeMux()
	mux.Handle("/", fol.Handler())
	obsHandler := obsv.Handler(col)
	mux.Handle("/metrics", obsHandler)
	mux.Handle("/metrics.json", obsHandler)
	mux.Handle("/debug/", obsHandler)

	ln, err := net.Listen("tcp", ff.addr)
	if err != nil {
		logf("listen: %v", err)
		return 1
	}
	httpSrv := &http.Server{Handler: mux}
	go func() { _ = httpSrv.Serve(ln) }()
	if ff.maxStale > 0 {
		logf("following %s on %s (readiness flips after %s of staleness)", ff.primary, ln.Addr(), ff.maxStale)
	} else {
		logf("following %s on %s (no staleness bound)", ff.primary, ln.Addr())
	}

	runDone := make(chan struct{})
	go func() { defer close(runDone); _ = fol.Run(ctx) }()

	<-ctx.Done()
	stop()
	logf("follower shutting down, draining in-flight requests")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logf("shutdown: %v", err)
	}
	// Run's exit path checkpoints the local chain so the next start
	// resumes instead of re-bootstrapping.
	<-runDone
	logf("bye")
	return 0
}

// parseTasks parses the -tasks flag: "all" or a comma list of
// full, partial, compl.
func parseTasks(s string) (core.Tasks, error) {
	if s == "" || s == "all" {
		return core.TaskAll, nil
	}
	var tasks core.Tasks
	for _, part := range strings.Split(s, ",") {
		switch strings.TrimSpace(part) {
		case "full":
			tasks |= core.TaskFull
		case "partial":
			tasks |= core.TaskPartial
		case "compl", "complementarity":
			tasks |= core.TaskCompl
		case "":
		default:
			return 0, fmt.Errorf("unknown task %q (want full, partial, compl or all)", part)
		}
	}
	if tasks == 0 {
		return 0, fmt.Errorf("empty -tasks selection")
	}
	return tasks, nil
}

// loadOrCompute resolves the startup state through the rotator: the
// freshest readable generation wins (corrupt candidates are quarantined
// and fallen past); when nothing exists yet the corpus is loaded or
// generated, cubeMasking runs, and the result is committed as the
// first generation. When candidates exist but none decodes, startup
// stops with a clean error rather than building again — a build from
// the base corpus would silently drop every previously checkpointed
// live insert, and the quarantined files deserve an operator's look.
func loadOrCompute(ctx context.Context, rot *snapshot.Rotator, load, genK string, n int, seed int64, tasks core.Tasks, col *obsv.Collector, logf func(string, ...any)) (*snapshot.Snapshot, error) {
	if rot != nil {
		start := time.Now()
		sn, from, err := rot.Load()
		switch {
		case err == nil:
			logf("loaded snapshot %s in %s (%d observations)", from, time.Since(start).Round(time.Millisecond), sn.Space.N())
			return sn, nil
		case errors.Is(err, fs.ErrNotExist):
			// Nothing on disk yet: compute from the corpus below.
		default:
			return nil, fmt.Errorf("loading snapshot %s: %w", rot.Path, err)
		}
	}

	corpus, err := loadCorpus(load, genK, n, seed)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	s, res, err := core.ComputeCorpusCtx(ctx, corpus, core.AlgorithmCubeMasking, core.Options{Tasks: tasks, Obs: col})
	if err != nil {
		return nil, err
	}
	logf("computed %d/%d/%d full/partial/compl pairs over %d observations in %s",
		len(res.FullSet), len(res.PartialSet), len(res.ComplSet), s.N(), time.Since(start).Round(time.Millisecond))
	sn := snapshot.New(s, res, core.BuildLattice(s))
	if rot != nil {
		data, err := sn.Encode()
		if err != nil {
			return nil, err
		}
		if err := rot.Write(data); err != nil {
			return nil, err
		}
		logf("wrote snapshot %s", rot.Path)
	}
	return sn, nil
}

func loadCorpus(load, genK string, n int, seed int64) (*qb.Corpus, error) {
	switch {
	case load != "" && genK != "":
		return nil, fmt.Errorf("use either -load or -gen, not both")
	case load != "":
		data, err := os.ReadFile(load)
		if err != nil {
			return nil, err
		}
		return rdfcube.LoadTurtle(string(data))
	case genK == "example":
		return gen.PaperExample(), nil
	case genK == "real":
		return gen.RealWorld(gen.RealWorldConfig{TotalObs: n, Seed: seed}), nil
	case genK == "synthetic":
		return gen.Synthetic(gen.SyntheticConfig{N: n, Seed: seed}), nil
	default:
		return nil, fmt.Errorf("no snapshot found: need -load FILE or -gen example|real|synthetic")
	}
}

// runCheck verifies a snapshot round trip: the persisted relationship
// sets must equal a fresh cubeMasking run over the reconstructed space —
// the exact kernel, whatever wrote the file, so a self-consistent but
// lossy state fails (the decoder has already derived each S_P pair's
// degree from that space and refused one outside (0, 1), as it does on
// every load). The snapshot is resolved through the same rotation fallback
// the serving path uses, so -check exercises exactly what a restart loads.
func runCheck(rot *snapshot.Rotator, tasks core.Tasks, stdout io.Writer, logf func(string, ...any)) int {
	sn, from, err := rot.Load()
	if err != nil {
		logf("%v", err)
		return 1
	}
	logf("checking snapshot %s", from)
	fresh := core.NewResult()
	if err := core.Compute(sn.Space, core.AlgorithmCubeMasking, core.Options{Tasks: tasks}, fresh); err != nil {
		logf("%v", err)
		return 1
	}
	fresh.Sort()
	persisted := sn.Result
	persisted.Sort()
	if !slices.Equal(persisted.FullSet, fresh.FullSet) {
		logf("check failed: full containment differs (persisted %d, fresh %d)", len(persisted.FullSet), len(fresh.FullSet))
		return 1
	}
	if !slices.Equal(persisted.PartialSet, fresh.PartialSet) {
		logf("check failed: partial containment differs (persisted %d, fresh %d)", len(persisted.PartialSet), len(fresh.PartialSet))
		return 1
	}
	if !slices.Equal(persisted.ComplSet, fresh.ComplSet) {
		logf("check failed: complementarity differs (persisted %d, fresh %d)", len(persisted.ComplSet), len(fresh.ComplSet))
		return 1
	}
	fmt.Fprintf(stdout, "ok: %d observations, %d/%d/%d full/partial/compl pairs match a fresh recomputation\n",
		sn.Space.N(), len(fresh.FullSet), len(fresh.PartialSet), len(fresh.ComplSet))
	return 0
}
