// Command cubegate is the stateless scatter/gather router in front of a
// fleet of cubed shards. Each shard owns a disjoint set of datasets;
// the gate routes writes to the owning shard's primary, fans reads out
// to every shard, merges the answers deterministically, and degrades to
// explicit partial results ("partial": true plus the missing shard
// list) when part of the fleet is unreachable. See internal/gate for
// the routing, hedging, breaker and live-rebalance machinery.
//
// Usage:
//
//	cubegate -shard-map shards.json -addr :8081
//	cubegate -shard-map shards.json -validate        # check the map and exit
//	cubegate -shard-map shards.json -watch-map 2s -migration-state-dir /var/lib/cubegate
//
// The shard map is a JSON file, either a bare array of shard entries
// (epoch 0, no migrations) or an object with "epoch", "shards" and
// optional "migrations" keys:
//
//	{
//	  "epoch": 4,
//	  "shards": [
//	    {
//	      "name": "g0",
//	      "primary": "http://10.0.0.1:8080",
//	      "replica": "http://10.0.0.2:8080",
//	      "datasets": ["http://example.org/dataset/shard/g0/D0", "..."]
//	    }
//	  ],
//	  "migrations": [
//	    {"id": "m1", "datasets": ["..."], "from": "g0", "to": "g1"}
//	  ]
//	}
//
// The map is live: editing the file (with an epoch bump) and sending
// SIGHUP — or letting -watch-map notice the change — swaps the routing
// table atomically, and any new "migrations" entries start. Migrations
// persist their phase under -migration-state-dir and resume across
// restarts; when a migration cuts over, the gate rewrites the map file
// in place so the installed epoch survives a crash.
//
// The gate address serves the merged /v1 query API next to the usual
// observability endpoints (/metrics, /metrics.json, /debug/vars,
// /debug/pprof/) plus the gate-specific /v1/stats fleet-health view and
// the rebalance admin surface (/v1/shardmap, /v1/migrations).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"rdfcube/internal/faultfs"
	"rdfcube/internal/gate"
	"rdfcube/internal/obsv"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// run is the daemon body; ctx cancellation is treated like a
// termination signal (tests use it in place of SIGTERM).
func run(parent context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cubegate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		mapPath   = fs.String("shard-map", "", "JSON shard map file (required)")
		addr      = fs.String("addr", ":8081", "HTTP listen address (port 0 for ephemeral)")
		validate  = fs.Bool("validate", false, "load and validate the shard map (epoch, ownership, migrations), print a summary, and exit")
		watchMap  = fs.Duration("watch-map", 0, "poll the map file for edits at this interval (0 disables; SIGHUP always reloads)")
		stateDir  = fs.String("migration-state-dir", "", "directory for migration state files (enables crash-resumable rebalancing)")
		timeout   = fs.Duration("timeout", 5*time.Second, "per-request budget")
		shardTO   = fs.Duration("shard-timeout", 2*time.Second, "per-upstream-call budget")
		reserve   = fs.Duration("merge-reserve", 100*time.Millisecond, "budget held back for merging and rendering")
		probe     = fs.Duration("probe-interval", 2*time.Second, "shard /readyz probe interval (0 default, negative disables)")
		brkN      = fs.Int("breaker-threshold", 3, "consecutive failures before a target's breaker opens")
		brkWait   = fs.Duration("breaker-backoff", 5*time.Second, "base backoff of an open breaker")
		hedgeQ    = fs.Float64("hedge-quantile", 0.9, "primary latency quantile after which the replica is hedged")
		hedgeMin  = fs.Duration("hedge-min", 5*time.Millisecond, "hedge delay floor")
		hedgeMax  = fs.Duration("hedge-max", 250*time.Millisecond, "hedge delay ceiling (and cold-start delay)")
		retries   = fs.Int("write-retries", 3, "max write re-sends after a retryable refusal")
		retryBase = fs.Duration("retry-base", 100*time.Millisecond, "write retry backoff base")
		retryMax  = fs.Duration("max-retry-wait", 2*time.Second, "cap on one honored Retry-After hint")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	logf := func(format string, a ...any) { fmt.Fprintf(stderr, "cubegate: "+format+"\n", a...) }

	if *mapPath == "" {
		logf("-shard-map is required")
		return 2
	}
	mapFile, err := loadShardMap(*mapPath)
	if err != nil {
		logf("%v", err)
		return 2
	}
	m := mapFile.Map()

	if *validate {
		// A validation run checks everything a live swap would: map
		// structure, disjoint ownership, and every migration spec against
		// the map's current ownership. It must not probe live hosts.
		if err := gate.ValidateShardMap(m); err != nil {
			logf("%v", err)
			return 2
		}
		if err := gate.ValidateMigrations(m, mapFile.Migrations); err != nil {
			logf("%v", err)
			return 2
		}
		datasets := 0
		for _, sc := range m.Shards {
			datasets += len(sc.Datasets)
		}
		fmt.Fprintf(stdout, "shard map ok: %d shards, %d datasets, epoch %d, %d migrations\n",
			len(m.Shards), datasets, m.Epoch, len(mapFile.Migrations))
		return 0
	}

	// On every installed map change (admin POST or a migration's cutover)
	// the file is rewritten in place, crash-safely, so the epoch a crash
	// interrupts is the epoch a restart boots from. The migrations list
	// rides along verbatim: completed entries are inert at the next boot
	// (their state files are terminal) until the operator prunes them. A
	// change that came FROM the file (SIGHUP, -watch-map) is already on
	// disk and is left alone: rewriting it would race the operator's next
	// edit for the length of an fsync.
	var fileMu sync.Mutex
	rewriteMapFile := func(installed gate.ShardMap) {
		fileMu.Lock()
		defer fileMu.Unlock()
		if onDisk, err := loadShardMap(*mapPath); err == nil && onDisk.Epoch == installed.Epoch &&
			gate.ValidateTransition(onDisk.Map(), installed) == nil {
			return
		}
		out := gate.ShardMapFile{Epoch: installed.Epoch, Shards: installed.Shards, Migrations: mapFile.Migrations}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			logf("rewriting shard map: %v", err)
			return
		}
		if err := faultfs.WriteFileAtomic(faultfs.OS{}, *mapPath, data); err != nil {
			logf("rewriting shard map: %v", err)
			return
		}
		logf("shard map file rewritten at epoch %d", installed.Epoch)
	}

	col := obsv.NewCollector()
	cfg := gate.Config{
		Shards:            m.Shards,
		Epoch:             m.Epoch,
		Recorder:          col,
		RequestTimeout:    *timeout,
		ShardTimeout:      *shardTO,
		MergeReserve:      *reserve,
		ProbeInterval:     *probe,
		BreakerThreshold:  *brkN,
		BreakerBackoff:    *brkWait,
		HedgeQuantile:     *hedgeQ,
		HedgeMin:          *hedgeMin,
		HedgeMax:          *hedgeMax,
		WriteRetries:      *retries,
		WriteRetryBase:    *retryBase,
		MaxRetryWait:      *retryMax,
		MigrationStateDir: *stateDir,
		OnMapChange:       rewriteMapFile,
		Logf:              logf,
	}
	g, err := gate.New(cfg)
	if err != nil {
		logf("%v", err)
		return 2
	}
	defer g.Close()

	// Boot-time rebalance recovery: interrupted migrations resume first
	// (their persisted phase wins), then the file's specs start. A spec
	// whose migration already ran — resumed above, or terminal in the
	// state dir — answers ErrMigrationExists and is skipped quietly.
	startFileMigrations := func(migs []gate.MigrationSpec) {
		for _, spec := range migs {
			switch _, err := g.StartMigration(spec); {
			case err == nil:
				logf("migration %s started (%d datasets, %s -> %s)", spec.ID, len(spec.Datasets), spec.From, spec.To)
			case errors.Is(err, gate.ErrMigrationExists):
				// already running or already finished; nothing to do
			default:
				logf("migration %s not started: %v", spec.ID, err)
			}
		}
	}
	if resumed, err := g.ResumeMigrations(); err != nil {
		logf("resuming migrations: %v", err)
	} else if len(resumed) > 0 {
		logf("resumed %d interrupted migrations", len(resumed))
	}
	startFileMigrations(mapFile.Migrations)

	ctx, stop := signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Live map reload: SIGHUP always; -watch-map additionally polls the
	// file's mtime. A reload validates and swaps atomically — a stale
	// epoch or overlapping ownership is logged and refused, and the
	// running table is untouched. Re-reading the file the gate itself
	// just rewrote swaps an identical map, which is a silent no-op.
	reload := func(why string) {
		fileMu.Lock()
		f, err := loadShardMap(*mapPath)
		if err == nil {
			mapFile.Migrations = f.Migrations
		}
		fileMu.Unlock()
		if err != nil {
			logf("map reload (%s): %v", why, err)
			return
		}
		if err := g.SwapMap(f.Map()); err != nil {
			logf("map reload (%s): refused: %v", why, err)
			return
		}
		startFileMigrations(f.Migrations)
	}
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	watcherDone := make(chan struct{})
	go func() {
		defer close(watcherDone)
		var tick <-chan time.Time
		if *watchMap > 0 {
			t := time.NewTicker(*watchMap)
			defer t.Stop()
			tick = t.C
		}
		lastStat := statKey(*mapPath)
		for {
			select {
			case <-ctx.Done():
				return
			case <-hup:
				lastStat = statKey(*mapPath)
				reload("SIGHUP")
			case <-tick:
				if now := statKey(*mapPath); now != lastStat {
					lastStat = now
					reload("file changed")
				}
			}
		}
	}()

	mux := http.NewServeMux()
	mux.Handle("/", g.Handler())
	obsHandler := obsv.Handler(col)
	mux.Handle("/metrics", obsHandler)
	mux.Handle("/metrics.json", obsHandler)
	mux.Handle("/debug/", obsHandler)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logf("listen: %v", err)
		return 1
	}
	httpSrv := &http.Server{Handler: mux}
	go func() { _ = httpSrv.Serve(ln) }()
	logf("gate serving on %s (%d shards, epoch %d)", ln.Addr(), len(m.Shards), g.Epoch())

	<-ctx.Done()
	stop()
	logf("shutting down, draining in-flight requests")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logf("shutdown: %v", err)
	}
	<-watcherDone
	logf("bye")
	return 0
}

// statKey summarizes a file's identity for cheap change polling.
func statKey(path string) string {
	fi, err := os.Stat(path)
	if err != nil {
		return "err:" + err.Error()
	}
	return fmt.Sprintf("%d/%d", fi.ModTime().UnixNano(), fi.Size())
}

// loadShardMap reads a shard-map file: either a bare JSON array of
// shard entries (epoch 0, no migrations) or an object wrapping them
// under "shards" with optional "epoch" and "migrations".
func loadShardMap(path string) (gate.ShardMapFile, error) {
	var f gate.ShardMapFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, fmt.Errorf("reading shard map: %w", err)
	}
	if err := json.Unmarshal(data, &f); err == nil && len(f.Shards) > 0 {
		return f, nil
	}
	var bare []gate.ShardConfig
	if err := json.Unmarshal(data, &bare); err != nil {
		return f, fmt.Errorf("shard map %s: want a JSON array of shards or {\"shards\": [...]}: %w", path, err)
	}
	return gate.ShardMapFile{Shards: bare}, nil
}
