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
// Startup goes through serve.Open, the one boot every primary-shaped
// node shares: the snapshot is resolved through generation rotation —
// the CURRENT pointer's generation, else older generations
// newest-first, else a legacy plain file — quarantining (renaming aside,
// never deleting or overwriting) any corrupt candidate along the way;
// the write-ahead log (-wal, defaulting to <snapshot>.wal) is then
// opened, quarantined the same way when its header is unreadable, and
// replayed on top, so writes acknowledged before a crash survive the
// restart. When no generation exists yet, the corpus is loaded or
// generated, the cubeMasking kernel (§3.3) runs, the state is committed
// as the first generation, and the daemon boots from it exactly as a
// restart would. Without -snapshot the built state is served from memory
// only, and -wal is refused: no checkpoint would ever truncate the log.
// While serving, every accepted write is fsynced to the WAL before its
// 201; the state is checkpointed on the -checkpoint interval and once
// more during graceful shutdown (SIGINT/SIGTERM) — each checkpoint
// commits a new generation atomically and only then truncates the WAL.
// If the WAL fails mid-flight the daemon degrades to read-only: queries
// keep working, writes get 503.
//
// The main address serves the /v1 query API (see internal/serve) next to
// the observability endpoints (/metrics, /metrics.json, /debug/vars,
// /debug/pprof/, /debug/traces) backed by the same collector the
// algorithms and handlers report into.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"rdfcube/internal/core"
	"rdfcube/internal/faultfs"
	"rdfcube/internal/front"
	"rdfcube/internal/gen"
	"rdfcube/internal/obsv"
	"rdfcube/internal/qb"
	"rdfcube/internal/replica"
	"rdfcube/internal/serve"
	"rdfcube/internal/snapshot"

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
		walPath  = fs.String("wal", "", "write-ahead log path for live writes; needs -snapshot (default <snapshot>.wal; \"off\" disables durability)")
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
		cfg := replica.Config{
			Primary:        strings.TrimRight(*follow, "/"),
			FS:             disk,
			SnapshotPath:   *snapPath,
			WALPath:        *walPath,
			Tasks:          tasks,
			Recorder:       col,
			MaxStaleness:   *maxStale,
			PollWait:       *pollWait,
			RequestTimeout: *timeout,
			MaxInFlight:    *inflight,
			Logf:           logf,
		}
		if *walPath == "off" {
			cfg.SnapshotPath, cfg.WALPath = "", ""
			logf("follower: -wal off disables the local chain; every restart re-bootstraps")
		}
		return runFollower(ctx, stop, cfg, *addr, col, logf)
	}

	// The rotator owns all snapshot artifacts around the base path:
	// generations, the CURRENT pointer, quarantined corpses, and the
	// legacy plain file a pre-rotation daemon may have left behind.
	var rot *snapshot.Rotator
	if *snapPath != "" {
		rot = snapshot.NewRotator(disk, *snapPath)
		rot.Logf = logf
	}

	// The write-ahead log sits beside the snapshot chain: only a checkpoint
	// that committed a generation truncates it, so without a chain it
	// would grow forever.
	wpath := *walPath
	switch {
	case wpath == "off":
		wpath = ""
	case wpath != "" && rot == nil:
		logf("-wal requires -snapshot: without a snapshot chain no checkpoint ever truncates the log")
		return 2
	case wpath == "" && rot != nil:
		wpath = *snapPath + ".wal"
	}

	if *check {
		if rot == nil {
			logf("-check requires -snapshot")
			return 2
		}
		return runCheck(rot, tasks, stdout, logf)
	}

	startupFailed := func(err error) int {
		if errors.Is(err, core.ErrCanceled) {
			logf("startup compute canceled by termination signal; nothing written")
			return 130
		}
		logf("%v", err)
		return 1
	}
	build := func() (*snapshot.Snapshot, error) {
		return compute(ctx, rot, *load, *genK, *n, *seed, tasks, col, logf)
	}

	if *once {
		sn, err := loadOrBuild(rot, build, logf)
		if err != nil {
			return startupFailed(err)
		}
		fmt.Fprintf(stdout, "snapshot ready: %d observations, %d/%d/%d full/partial/compl pairs\n",
			sn.Space.N(), len(sn.Result.FullSet), len(sn.Result.PartialSet), len(sn.Result.ComplSet))
		return 0
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
	cfg := serve.Config{
		Tasks:          tasks,
		Recorder:       col,
		RequestTimeout: *timeout,
		MaxInFlight:    *inflight,
		Logf:           logf,
		TraceRing:      *traceN,
		SlowThreshold:  *slowTh,
		SlowLog:        slowLog,
	}

	// Boot: from the snapshot chain and the WAL when there is one, else
	// from a build held only in memory.
	var srv *serve.Server
	if rot != nil {
		srv, err = openOrBuild(rot, wpath, cfg, build)
	} else {
		var sn *snapshot.Snapshot
		if sn, err = build(); err == nil {
			srv, err = serve.New(sn, cfg)
		}
	}
	if err != nil {
		return startupFailed(err)
	}
	if wlog := srv.WAL(); wlog != nil {
		defer wlog.Close()
	}

	addrUp, shutdownHTTP, err := front.Listen(*addr, srv.Handler(), col, logf)
	if err != nil {
		logf("listen: %v", err)
		return 1
	}
	logf("serving on %s", addrUp)

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
	shutdownHTTP()
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

// runFollower runs cubed as a read replica: bootstrap from the primary's
// snapshot, tail its WAL, serve the read API locally, refuse writes with
// a Leader hint. The follower persists its own snapshot/WAL chain under
// -snapshot/-wal, booted through serve.Open like a primary's, so a
// restart resumes from the last applied offset instead of re-transferring
// the whole image; `-wal off` disables the chain (every restart then
// re-bootstraps), and -wal without -snapshot is refused (exit 2).
func runFollower(ctx context.Context, stop func(), cfg replica.Config, addr string, col *obsv.Collector, logf func(string, ...any)) int {
	fol, err := replica.New(cfg)
	if err != nil {
		logf("%v", err)
		return 2
	}
	addrUp, shutdownHTTP, err := front.Listen(addr, fol.Handler(), col, logf)
	if err != nil {
		logf("listen: %v", err)
		return 1
	}
	if cfg.MaxStaleness > 0 {
		logf("following %s on %s (readiness flips after %s of staleness)", cfg.Primary, addrUp, cfg.MaxStaleness)
	} else {
		logf("following %s on %s (no staleness bound)", cfg.Primary, addrUp)
	}

	runDone := make(chan struct{})
	go func() { defer close(runDone); _ = fol.Run(ctx) }()

	<-ctx.Done()
	stop()
	logf("follower shutting down, draining in-flight requests")
	shutdownHTTP()
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

// loadOrBuild resolves the state -once reports: the freshest readable
// generation the rotator finds (corrupt candidates are quarantined and
// fallen past), else a fresh build. When candidates exist but none
// decodes, it stops with a clean error rather than building again — a
// build from the base corpus would silently drop every previously
// checkpointed live insert, and the quarantined files deserve an
// operator's look.
func loadOrBuild(rot *snapshot.Rotator, build func() (*snapshot.Snapshot, error), logf func(string, ...any)) (*snapshot.Snapshot, error) {
	if rot != nil {
		start := time.Now()
		sn, from, err := rot.Load()
		switch {
		case err == nil:
			logf("loaded snapshot %s in %s (%d observations)", from, time.Since(start).Round(time.Millisecond), sn.Space.N())
			return sn, nil
		case !errors.Is(err, fs.ErrNotExist):
			return nil, fmt.Errorf("loading snapshot %s: %w", rot.Path, err)
		}
	}
	return build()
}

// openOrBuild boots the daemon from disk with serve.Open: the freshest
// readable generation, then the WAL replayed on top (an unreadable log is
// quarantined, a torn tail cut; a log that disagrees with the snapshot
// stops the daemon instead of silently dropping acknowledged writes). On
// an empty directory it builds and writes the first generation, then
// boots from it exactly as a restart would. Only a missing snapshot
// triggers the build: Recovery.Snapshot is set once one loaded, so a WAL
// path in a missing directory stays an error.
func openOrBuild(rot *snapshot.Rotator, wpath string, cfg serve.Config, build func() (*snapshot.Snapshot, error)) (*serve.Server, error) {
	srv, rec, err := serve.Open(rot, wpath, cfg)
	if !errors.Is(err, fs.ErrNotExist) || rec.Snapshot != "" {
		return srv, err
	}
	if _, err := build(); err != nil {
		return nil, err
	}
	srv, _, err = serve.Open(rot, wpath, cfg)
	return srv, err
}

// compute loads or generates the corpus, runs the cubeMasking kernel
// (§3.3) over it and, with a rotator, commits the result as the first
// snapshot generation.
func compute(ctx context.Context, rot *snapshot.Rotator, load, genK string, n int, seed int64, tasks core.Tasks, col *obsv.Collector, logf func(string, ...any)) (*snapshot.Snapshot, error) {
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
	for _, set := range []struct {
		name             string
		persisted, fresh []core.Pair
	}{
		{"full containment", persisted.FullSet, fresh.FullSet},
		{"partial containment", persisted.PartialSet, fresh.PartialSet},
		{"complementarity", persisted.ComplSet, fresh.ComplSet},
	} {
		if !slices.Equal(set.persisted, set.fresh) {
			logf("check failed: %s differs (persisted %d, fresh %d)", set.name, len(set.persisted), len(set.fresh))
			return 1
		}
	}
	fmt.Fprintf(stdout, "ok: %d observations, %d/%d/%d full/partial/compl pairs match a fresh recomputation\n",
		sn.Space.N(), len(fresh.FullSet), len(fresh.PartialSet), len(fresh.ComplSet))
	return 0
}
