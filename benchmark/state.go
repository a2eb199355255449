package main

import (
	"fmt"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"rdfcube/internal/core"
	"rdfcube/internal/faultfs"
	"rdfcube/internal/lattice"
	"rdfcube/internal/obsv"
	"rdfcube/internal/qb"
	"rdfcube/internal/serve"
	"rdfcube/internal/snapshot"
	"rdfcube/internal/wal"
)

// The stages the workloads are made of: compute the relationship state,
// serve it, checkpoint it, restart from the checkpoint, replay a WAL.

// built is one computed relationship state with its stage timings.
type built struct {
	corpus  *qb.Corpus
	space   *core.Space
	res     *core.Result
	lat     *lattice.Lattice
	compile time.Duration // core.NewSpace
	compute time.Duration // core.Compute into core.Result
	sort    time.Duration // Result.Sort
}

// pairsPerSec is n(n−1) over the wall time of NewSpace+Compute+Sort.
func (b *built) pairsPerSec() float64 {
	n := float64(b.space.N())
	return n * (n - 1) / (b.compile + b.compute + b.sort).Seconds()
}

// buildState runs the offline pipeline's first stage the way cubrel and
// cubed do: compile, cubeMasking over all three tasks into a collecting
// Result, sort.
func buildState(corpus *qb.Corpus, workers int, tr *tracer, parent int) (*built, error) {
	b := &built{corpus: corpus}
	var err error
	b.compile = tr.timed("core.NewSpace", parent, func() { b.space, err = core.NewSpace(corpus) })
	if err != nil {
		return nil, fmt.Errorf("core.NewSpace: %w", err)
	}
	b.res = core.NewResult()
	b.compute = tr.timed("core.Compute", parent, func() {
		err = core.Compute(b.space, core.AlgorithmCubeMasking, core.Options{Tasks: core.TaskAll, Workers: workers}, b.res)
	})
	if err != nil {
		return nil, fmt.Errorf("core.Compute: %w", err)
	}
	b.sort = tr.timed("core.Result.Sort", parent, b.res.Sort)
	b.lat = core.BuildLattice(b.space)
	return b, nil
}

// node is one serving process's durable footprint: a directory with a
// snapshot rotator and a WAL, and the live server over them.
type node struct {
	dir  string
	rot  *snapshot.Rotator
	wlog *wal.Log // nil for a WAL-less server
	srv  *serve.Server
	h    http.Handler
}

func snapPath(dir string) string { return filepath.Join(dir, "snap.bin") }
func walPath(dir string) string  { return filepath.Join(dir, "cube.wal") }

// serveConfig is cubed's shipped serving policy: a Collector recorder,
// fsync-before-ack through the WAL, default limits. The short long-poll
// budget only matters to followers tailing this node.
func serveConfig(rot *snapshot.Rotator, wlog *wal.Log) serve.Config {
	cfg := serve.Config{
		Recorder:    obsv.NewCollector(),
		WAL:         wlog,
		WALPollWait: 500 * time.Millisecond,
	}
	if rot != nil {
		cfg.SnapshotGen = func() uint64 { g, _ := rot.CurrentGen(); return g }
	}
	return cfg
}

// persist is the offline pipeline's checkpoint: encode the computed state
// and commit it as dir's next snapshot generation.
func persist(dir string, b *built, tr *tracer, parent int) (checkpointCost, error) {
	var c checkpointCost
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return c, err
	}
	var data []byte
	var err error
	enc := tr.timed("snapshot.Encode", parent, func() { data, err = snapshot.New(b.space, b.res, b.lat).Encode() })
	if err != nil {
		return c, fmt.Errorf("snapshot encode: %w", err)
	}
	c.commit = tr.timed("snapshot.Rotator.Write", parent, func() {
		err = snapshot.NewRotator(faultfs.OS{}, snapPath(dir)).Write(data)
	})
	if err != nil {
		return c, fmt.Errorf("rotator write: %w", err)
	}
	c.total, c.bytes = enc+c.commit, len(data)
	return c, nil
}

// startNode adopts a computed state into a live server under dir (an
// empty dir means a volatile server with no files at all). With commit,
// the state is first committed as the directory's snapshot (the "pre-run
// snapshot" crash recovery replays onto); with withWAL, inserts are
// fsynced to a fresh log before they are acknowledged.
func startNode(dir string, b *built, commit, withWAL bool) (*node, error) {
	nd := &node{dir: dir}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		nd.rot = snapshot.NewRotator(faultfs.OS{}, snapPath(dir))
	}
	if commit {
		if _, err := persist(dir, b, nil, 0); err != nil {
			return nil, err
		}
	}
	sn := snapshot.New(b.space, b.res, b.lat)
	if withWAL {
		wlog, _, err := wal.Open(faultfs.OS{}, walPath(dir))
		if err != nil {
			return nil, err
		}
		nd.wlog = wlog
	}
	srv, err := serve.New(sn, serveConfig(nd.rot, nd.wlog))
	if err != nil {
		nd.close()
		return nil, fmt.Errorf("serve.New: %w", err)
	}
	nd.srv, nd.h = srv, srv.Handler()
	return nd, nil
}

func (nd *node) close() {
	if nd == nil {
		return
	}
	if nd.srv != nil {
		nd.srv.BeginShutdown()
	}
	if nd.wlog != nil {
		nd.wlog.Close()
	}
}

// checkpointCost is one serving-path checkpoint cycle split at the commit
// callback: encode is everything before and after it (waiting for the write
// lock, Snapshot.Encode, truncating the WAL), commit is Rotator.Write.
type checkpointCost struct {
	total, commit time.Duration
	bytes         int
}

func (c checkpointCost) encode() time.Duration { return c.total - c.commit }

// checkpoint runs the serving path's full checkpoint cycle: encode under
// the write lock, commit through the rotator, truncate the WAL.
func (nd *node) checkpoint() (checkpointCost, error) {
	var c checkpointCost
	t0 := time.Now()
	err := nd.srv.CheckpointWith(func(data []byte) error {
		t1 := time.Now()
		defer func() { c.commit = time.Since(t1) }()
		c.bytes = len(data)
		return nd.rot.Write(data)
	})
	c.total = time.Since(t0)
	return c, err
}

// recovery is what one restart cost, stage by stage. total is the sum of
// the stages, so whatever runs between two of them is off the clock.
type recovery struct {
	load, walOpen, serveNew, replay, firstGet time.Duration
	loadAllocMB                               float64 // allocated while loading and decoding
	serveAllocMB                              float64 // allocated by serve.New: its adjacency
	storedPairs                               int     // relationship pairs in the loaded snapshot
}

func (r recovery) total() time.Duration {
	return r.load + r.walOpen + r.serveNew + r.replay + r.firstGet
}

// recoverNode is what a cubed restart costs: load the freshest snapshot,
// open the WAL, build the server, replay the WAL suffix, answer a first
// GET /v1/related with 200. The returned node is live. inspect, when not
// nil, sees the decoded snapshot before a server adopts it; recovery.total
// sums the stages, so it runs off the clock.
func recoverNode(dir string, tr *tracer, parent int, inspect func(*snapshot.Snapshot) error) (*node, recovery, error) {
	var rv recovery
	nd := &node{dir: dir, rot: snapshot.NewRotator(faultfs.OS{}, snapPath(dir))}
	var sn *snapshot.Snapshot
	var recs []wal.Record
	var err error
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rv.load = tr.timed("snapshot.Rotator.Load", parent, func() { sn, _, err = nd.rot.Load() })
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, rv, fmt.Errorf("rotator load: %w", err)
	}
	rv.loadAllocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	rv.storedPairs = len(sn.Result.FullSet) + len(sn.Result.PartialSet) + len(sn.Result.ComplSet)
	if inspect != nil {
		if err := inspect(sn); err != nil {
			return nil, rv, err
		}
	}
	rv.walOpen = tr.timed("wal.Open", parent, func() { nd.wlog, recs, err = wal.Open(faultfs.OS{}, walPath(dir)) })
	if err != nil {
		return nil, rv, err
	}
	runtime.ReadMemStats(&before)
	rv.serveNew = tr.timed("serve.New", parent, func() { nd.srv, err = serve.New(sn, serveConfig(nd.rot, nd.wlog)) })
	runtime.ReadMemStats(&after)
	if err != nil {
		nd.close()
		return nil, rv, fmt.Errorf("serve.New: %w", err)
	}
	rv.serveAllocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	rv.replay = tr.timed("serve.Replay", parent, func() { _, err = nd.srv.Replay(recs) })
	if err != nil {
		nd.close()
		return nil, rv, err
	}
	nd.h = nd.srv.Handler()
	rv.firstGet = tr.timed("GET /v1/related", parent, func() { _, err = get(inProcess(nd.h), "/v1/related?obs=0") })
	if err != nil {
		nd.close()
		return nil, rv, fmt.Errorf("first read after recovery: %w", err)
	}
	return nd, rv, nil
}

// loadState decodes dir's committed snapshot into a WAL-less server: the
// state a crashed process restarts from, before its log is replayed.
func loadState(dir string) (*serve.Server, error) {
	sn, _, err := snapshot.NewRotator(faultfs.OS{}, snapPath(dir)).Load()
	if err != nil {
		return nil, fmt.Errorf("rotator load: %w", err)
	}
	srv, err := serve.New(sn, serve.Config{})
	if err != nil {
		return nil, fmt.Errorf("serve.New: %w", err)
	}
	return srv, nil
}

// crashReplay measures WAL recovery after a crash with no checkpoint:
// onto is a server holding the state the log was written against; the
// timed part is wal.Open on dir's log plus Server.Replay of its first
// limit records (all when limit ≤ 0). It returns the records the log held
// and the replay rate in records per second.
func crashReplay(dir string, onto *serve.Server, limit int) ([]wal.Record, float64, error) {
	t0 := time.Now()
	wlog, recs, err := wal.Open(faultfs.OS{}, walPath(dir))
	if err != nil {
		return nil, 0, err
	}
	defer wlog.Close()
	prefix := recs
	if limit > 0 && len(prefix) > limit {
		prefix = prefix[:limit]
	}
	applied, err := onto.Replay(prefix)
	d := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	if applied != len(prefix) {
		return nil, 0, fmt.Errorf("replay applied %d of %d records", applied, len(prefix))
	}
	if len(prefix) == 0 {
		return nil, 0, fmt.Errorf("wal %s holds no records to replay", walPath(dir))
	}
	return recs, float64(len(prefix)) / d.Seconds(), nil
}

// cloneState copies a computed state at the price of a memory copy instead
// of a recomputation: the same seed regenerates the corpus and compiles to
// the same observation indices, so the Result's pair sets carry over. The
// layer probes need several independent copies of one state, because
// servers and core.Incremental adopt and grow the state they are given.
func cloneState(corpus *qb.Corpus, res *core.Result) (*built, error) {
	space, err := core.NewSpace(corpus)
	if err != nil {
		return nil, fmt.Errorf("core.NewSpace: %w", err)
	}
	return &built{
		corpus: corpus,
		space:  space,
		lat:    core.BuildLattice(space),
		res: &core.Result{
			FullSet:       slices.Clone(res.FullSet),
			PartialSet:    slices.Clone(res.PartialSet),
			ComplSet:      slices.Clone(res.ComplSet),
			PartialDegree: maps.Clone(res.PartialDegree),
			PartialDims:   maps.Clone(res.PartialDims),
		},
	}, nil
}

// settle collects the garbage earlier stages left, off the clock, before a
// timed stage starts: over hundreds of megabytes of live relationship maps
// one collection costs a tenth of a second of both cores, and whether the
// previous stage's falls inside a half-second stage must not be left to
// chance. It also takes one reading of the host yardstick, so that a round's
// readings sit between its stages.
func (rc *run) settle() {
	runtime.GC()
	rc.readings = append(rc.readings, rc.mem.read(rc.sz.reading))
}

// heapLiveMB is HeapAlloc after a forced collection, less the yardstick's
// own array, in 10^6 bytes. keep pins the state whose footprint is being
// measured.
func (rc *run) heapLiveMB(keep ...any) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(keep)
	return float64(ms.HeapAlloc-rc.mem.bytes()) / 1e6
}
