package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"rdfcube/internal/core"
	"rdfcube/internal/loadgen"
	"rdfcube/internal/qb"
	"rdfcube/internal/serve"
	"rdfcube/internal/snapshot"
)

// The four workloads. A run is a number of independent ROUNDS of the
// workload's whole lifecycle, each from a corpus and plans of its own
// (roundSeed) at the sizes the workload's definition fixes; -seconds scales
// the number of rounds and nothing else. A stage metric is the median over
// the rounds of the round's one value; a latency is the exact p50 of every
// round's raw samples pooled. A busy stretch of the shared host that lasts
// seconds therefore spoils a minority of a metric's samples and not the
// metric; against the stretches that outlast a run, every time a round
// measures is divided by the round's host factor, its readings of the
// memory yardstick over the nominal one (README.md, "Load shape").
//
// The driver's contract wants every run to report every end-to-end metric,
// so a workload whose own stages leave a metric empty fills it with one
// extra stage per round, after the round's timed phase: a checkpoint, a
// restart, or the restart drill (README.md, "Which stage fills which
// metric").

// run is the context of one workload run.
type run struct {
	workload string
	base     int64 // the run's seed
	seed     int64 // the current round's: roundSeed(base, round)
	round    int
	rounds   int
	seconds  float64
	sz       sizes
	procs    int // GOMAXPROCS and closed-loop client count
	workdir  string
	tr       *tracer // nil on the untraced run
	rep      *report
	digests  []string
	mem      *memRef   // the host yardstick
	readings []float64 // the current round's readings of it, ns per hop

	st       stages        // what the last round's own stages cost, for the per-layer list
	probe    *built        // traced run only: a copy of the pre-traffic state
	recall   float64       // traced run only: clustering's recall against that state
	phase    *runStats     // the last round's timed traffic phase
	sampling time.Duration // traced topology only: client time of its sampled direct reads

	// probed holds, per distinct probe input, the metrics the layer probes
	// of an earlier workload of this process produced: -workload all
	// probes a corpus once, not once per workload that uses it.
	probed map[string]map[string]float64
}

func (rc *run) traced() bool { return rc.tr != nil }

// last reports whether the current round is the run's last: the checks
// that cost a second or more (batch's kernels, topology's oracle) run there
// only, the cheap ones every round.
func (rc *run) last() bool { return rc.round == rc.rounds-1 }

// dir names a path in the current round's scratch directory, which it
// creates; runRounds removes it when the round is over.
func (rc *run) dir(name string) string {
	d := filepath.Join(rc.workdir, fmt.Sprintf("round%d", rc.round))
	_ = os.MkdirAll(d, 0o755)
	return filepath.Join(d, name)
}

// roundCount applies -seconds to the workload's rounds per refSeconds. The
// traced run makes one round: its spans and probes describe a lifecycle,
// and its numbers carry no bound.
func (rc *run) roundCount() int {
	if rc.traced() {
		return 1
	}
	per := map[string]int{
		"batch": rc.sz.batchRounds, "read": rc.sz.readRounds,
		"ingest": rc.sz.ingestRounds, "topology": rc.sz.topoRounds,
	}[rc.workload]
	return max(1, int(math.Round(float64(per)*rc.seconds/refSeconds)))
}

// runRounds makes the run's rounds and publishes their medians. Each round
// measures into samples of its own, which join the run's twice: as measured,
// and with every time divided by the round's host factor.
func (rc *run) runRounds(round func(*samples) error) error {
	measured, normal := &samples{}, &samples{}
	var factors []float64
	rc.rounds = rc.roundCount()
	for r := 0; r < rc.rounds; r++ {
		rc.round, rc.seed = r, roundSeed(rc.base, r)
		rc.readings = rc.readings[:0]
		rc.settle() // the previous round's state, off the clock
		sm := &samples{}
		if err := round(sm); err != nil {
			return fmt.Errorf("round %d: %w", r, err)
		}
		rc.settle()
		f := median(rc.readings) / memRefNominal
		factors = append(factors, f)
		measured.add(sm, 1)
		normal.add(sm, f)
		_ = os.RemoveAll(rc.dir(""))
	}
	rc.emit(normal, measured, factors)
	return nil
}

// stages are the timings of the layer calls a lifecycle makes anyway. The
// traced run reports them as per-layer metrics instead of calling the
// layers a second time.
type stages struct {
	gen                    time.Duration // gen.RealWorld / gen.ShardWorlds
	compile, compute, sort time.Duration // core.NewSpace, core.Compute into Result, Result.Sort
	obs, partialPairs      int
	encode, commit         time.Duration // Snapshot.Encode, Rotator.Write
	snapBytes              int
	rec                    recovery
}

func (st *stages) built(b *built) {
	st.compile, st.compute, st.sort = b.compile, b.compute, b.sort
	st.obs, st.partialPairs = b.space.N(), len(b.res.PartialSet)
}

// samples holds what one round, or the rounds of one run, measured.
type samples struct {
	// One value per round.
	setup, checkpoint, recover []float64 // seconds
	pairs, goodput, replay     []float64 // per second
	snapPerObs, heapMB         []float64
	// Raw latencies, every round's pooled.
	related, inserts []time.Duration
	requests         int           // timed requests, all rounds
	elapsed          time.Duration // of their phases
}

// add appends a round's samples with the host factor f taken out: times are
// divided by it, rates multiplied, sizes left alone.
func (sm *samples) add(o *samples, f float64) {
	scale := func(dst *[]float64, src []float64, by float64) {
		for _, v := range src {
			*dst = append(*dst, v*by)
		}
	}
	scale(&sm.setup, o.setup, 1/f)
	scale(&sm.checkpoint, o.checkpoint, 1/f)
	scale(&sm.recover, o.recover, 1/f)
	scale(&sm.pairs, o.pairs, f)
	scale(&sm.goodput, o.goodput, f)
	scale(&sm.replay, o.replay, f)
	sm.snapPerObs = append(sm.snapPerObs, o.snapPerObs...)
	sm.heapMB = append(sm.heapMB, o.heapMB...)
	for _, d := range o.related {
		sm.related = append(sm.related, time.Duration(float64(d)/f))
	}
	for _, d := range o.inserts {
		sm.inserts = append(sm.inserts, time.Duration(float64(d)/f))
	}
	sm.requests += o.requests
	sm.elapsed += o.elapsed
}

// timedTraffic books the round's timed traffic phase: the one that fills
// related_* and goodput_rps.
func (rc *run) timedTraffic(sm *samples, st *runStats) {
	rc.phase = st
	rc.rep.count(st)
	sm.goodput = append(sm.goodput, st.goodput())
	sm.related = append(sm.related, st.lat[loadgen.OpRelated]...)
	sm.requests += st.attempted
	sm.elapsed += st.elapsed
}

// emit publishes the end-to-end metrics from the host-normalised samples:
// medians over the rounds, exact quantiles over the rounds' pooled requests.
// The same figures as measured go into a note, for a reader who wants this
// box's wall-clock numbers.
func (rc *run) emit(sm, measured *samples, factors []float64) {
	r := rc.rep
	r.set("host.mem_factor", median(factors))
	r.set("setup_s", median(sm.setup))
	r.set("batch_pairs_per_s", median(sm.pairs))
	r.set("checkpoint_s", median(sm.checkpoint))
	r.set("recover_s", median(sm.recover))
	r.set("snapshot_bytes_per_obs", median(sm.snapPerObs))
	rel, in := summarize(sm.related), summarize(sm.inserts)
	r.set("related_p50_us", rel.P50)
	r.set("related_p99_us", rel.P99)
	r.set("insert_p50_us", in.P50)
	r.set("insert_p99_us", in.P99)
	r.set("goodput_rps", median(sm.goodput))
	r.set("wal_replay_rps", median(sm.replay))
	r.set("heap_live_mb", median(sm.heapMB))
	r.note("related: n=%d p50=%.1fus p99=%.1fus p%g=%.1fus", rel.N, rel.P50, rel.P99, rel.TailPct, rel.Tail)
	r.note("insert:  n=%d p50=%.1fus p99=%.1fus p%g=%.1fus", in.N, in.P50, in.P99, in.TailPct, in.Tail)
	r.note("%d rounds, %d closed-loop clients: %d timed requests in %.2fs of traffic phases; every stage metric is the median of %d values (setup_s of %d)",
		rc.rounds, rc.procs, sm.requests, sm.elapsed.Seconds(), len(sm.pairs), len(sm.setup))
	r.note("host factor per round (yardstick reading / %.0f ns nominal): median %.3f, range %.3f to %.3f",
		memRefNominal, median(factors), slices.Min(factors), slices.Max(factors))
	r.note("as measured: setup_s=%.6g batch_pairs_per_s=%.6g checkpoint_s=%.6g recover_s=%.6g related_p50_us=%.6g insert_p50_us=%.6g goodput_rps=%.6g wal_replay_rps=%.6g",
		median(measured.setup), median(measured.pairs), median(measured.checkpoint), median(measured.recover),
		summarize(measured.related).P50, summarize(measured.inserts).P50, median(measured.goodput), median(measured.replay))
}

// checkpointed runs a live node's checkpoint cycle once: checkpoint_s and
// snapshot_bytes_per_obs. The traced run keeps a reader probing the node
// meanwhile, for the stall the cycle's write lock imposes.
func (rc *run) checkpointed(nd *node, sm *samples, parent int) error {
	rc.settle()
	id := rc.tr.start("serve.CheckpointWith", parent, 0)
	var c checkpointCost
	var err error
	cycle := func() { c, err = nd.checkpoint() }
	if rc.traced() {
		rc.stallProbe(nd.h, cycle)
	} else {
		cycle()
	}
	rc.tr.end(id)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	sm.checkpoint = append(sm.checkpoint, c.total.Seconds())
	rc.st.encode, rc.st.commit, rc.st.snapBytes = c.encode(), c.commit, c.bytes
	n, err := observations(inProcess(nd.h))
	if err != nil {
		return err
	}
	sm.snapPerObs = append(sm.snapPerObs, float64(c.bytes)/float64(n))
	return nil
}

// stallProbe runs fn while one client keeps reading obs 0's relationships,
// and reports the slowest read as serve.checkpoint_stall_ms.
func (rc *run) stallProbe(h http.Handler, fn func()) {
	stop := make(chan struct{})
	var worst time.Duration
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		op := loadgen.Op{Method: "GET", Path: "/v1/related?obs=0"}
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, _, d, err := issue(inProcess(h), op); err == nil && d > worst {
				worst = d
			}
		}
	}()
	t0 := time.Now()
	fn()
	cycle := time.Since(t0)
	close(stop)
	wg.Wait()
	rc.rep.set("serve.checkpoint_stall_ms", float64(worst.Nanoseconds())/1e6)
	rc.rep.note("checkpoint stall: slowest concurrent read %.1fms during a %.1fms checkpoint cycle", float64(worst.Nanoseconds())/1e6, float64(cycle.Nanoseconds())/1e6)
}

// restarted recovers a node from dir's checkpoint once: recover_s.
func (rc *run) restarted(dir string, sm *samples, parent int, inspect func(*snapshot.Snapshot) error) (*node, error) {
	rc.settle()
	id := rc.tr.start("restart", parent, 0)
	nd, rv, err := recoverNode(dir, rc.tr, id, inspect)
	rc.tr.end(id)
	if err != nil {
		return nil, err
	}
	sm.recover = append(sm.recover, rv.total().Seconds())
	rc.st.rec = rv
	return nd, nil
}

// drilled pushes the restart drill's insert burst through a freshly
// recovered node with one client (every ack fsynced), then replays the log
// it left onto pre, a server still holding the checkpoint's state:
// insert_* and wal_replay_rps for the workloads whose timed phase carries
// no writes.
func (rc *run) drilled(nd *node, pre *serve.Server, inserts []loadgen.Op, sm *samples, parent int) error {
	rc.settle()
	id := rc.tr.start("drill.inserts", parent, 0)
	st := drive(inProcess(nd.h), inserts, 1, driveOpts{})
	rc.tr.end(id)
	rc.rep.count(st)
	sm.inserts = append(sm.inserts, st.lat[loadgen.OpInsert]...)
	rc.settle()
	id = rc.tr.start("drill.crashReplay", parent, 0)
	recs, rps, err := crashReplay(nd.dir, pre, 0)
	rc.tr.end(id)
	if err != nil {
		return err
	}
	sm.replay = append(sm.replay, rps)
	rc.rep.attempted++
	if len(recs) != st.good {
		rc.rep.fail("drill: WAL holds %d records after %d acked inserts", len(recs), st.good)
	}
	return nil
}

// keepForProbes copies the pre-traffic state for the traced run's layer
// probes and runs the clustering check against it, before any insert grows
// it.
func (rc *run) keepForProbes(res *core.Result) error {
	if !rc.traced() || rc.probed[rc.corpusKey()] != nil {
		return nil
	}
	b, err := cloneState(rc.freshCorpus(), res)
	if err != nil {
		return err
	}
	rc.probe = b
	rc.recall, err = rc.checkClustering(b.space, res)
	return err
}

// ---------------------------------------------------------------- batch

// batchRound runs the offline pipeline cold: NewSpace → Compute into Result
// → Sort → Encode → Rotator.Write → Rotator.Load → serve.New → first GET.
// The recovered server then takes the restart drill's inserts and a read
// sweep, which fill the serving metrics.
func (rc *run) batchRound(sm *samples) error {
	n := rc.sz.batchN
	// batch's set-up is the corpus and two plans, milliseconds of work (the
	// pipeline is what it measures), so each round sets up several times.
	var sweep *loadgen.Plan
	var drill []loadgen.Op
	for i := 0; i < rc.sz.setupReps; i++ {
		id := rc.tr.start("setup", 0, 0)
		t0 := time.Now()
		corpus := realWorld(n, rc.seed)
		rc.st.gen = time.Since(t0)
		var err error
		if sweep, err = buildPlan(corpus, n, rc.seed, "explorer", rc.sz.sweep); err != nil {
			return err
		}
		if drill, err = insertOps(corpus, n, rc.seed, rc.sz.drill); err != nil {
			return err
		}
		sm.setup = append(sm.setup, time.Since(t0).Seconds())
		rc.tr.end(id)
	}
	rc.digests = append(rc.digests, sweep.Digest, digestOps(drill))

	rc.settle()
	root := rc.tr.start("batch.pipeline", 0, rc.tr.request())
	b, err := buildState(realWorld(n, rc.seed), rc.procs, rc.tr, root)
	if err != nil {
		return err
	}
	sm.pairs = append(sm.pairs, b.pairsPerSec())
	rc.st.built(b)

	dir := rc.dir("pipeline")
	rc.settle()
	ckpt := rc.tr.start("checkpoint", root, 0)
	c, err := persist(dir, b, rc.tr, ckpt)
	rc.tr.end(ckpt)
	if err != nil {
		return err
	}
	sm.checkpoint = append(sm.checkpoint, c.total.Seconds())
	rc.st.encode, rc.st.commit, rc.st.snapBytes = c.encode(), c.commit, c.bytes
	sm.snapPerObs = append(sm.snapPerObs, float64(c.bytes)/float64(b.space.N()))

	// The decoded snapshot must re-encode to the committed bytes; the check
	// sits between two timed stages of the last round's restart, off the
	// clock, so that no round decodes its snapshot twice.
	var inspect func(*snapshot.Snapshot) error
	if rc.last() {
		inspect = func(sn *snapshot.Snapshot) error { return rc.checkReencodes(dir, sn) }
	}
	live, err := rc.restarted(dir, sm, root, inspect)
	if err != nil {
		return err
	}
	rc.tr.end(root)
	defer live.close()
	sm.heapMB = append(sm.heapMB, rc.heapLiveMB(b, live))
	if rc.last() {
		if err := rc.checkBatch(b); err != nil {
			return err
		}
	}
	if err := rc.keepForProbes(b.res); err != nil {
		return err
	}

	// The pipeline's server came from the decoded snapshot, so the computed
	// state is still untouched: serve it too, as what the drill's log
	// replays onto.
	pre, err := serve.New(snapshot.New(b.space, b.res, b.lat), serve.Config{})
	if err != nil {
		return fmt.Errorf("serve.New: %w", err)
	}
	if err := rc.drilled(live, pre, drill, sm, 0); err != nil {
		return err
	}
	rc.settle()
	id := rc.tr.start("sweep", 0, 0)
	st := drive(inProcess(live.h), sweep.Ops, rc.procs, driveOpts{tr: rc.tr})
	rc.tr.end(id)
	rc.timedTraffic(sm, st)
	if rc.traced() {
		// batch checkpoints offline, with no server to stall; the other
		// workloads measure the stall during their own checkpoint.
		var err error
		rc.stallProbe(live.h, func() { _, err = live.checkpoint() })
		if err != nil {
			return err
		}
	}
	if rc.last() {
		rc.rep.note("batch: n=%d, one cold pipeline run, %d drill inserts and a %d-request sweep per round", n, len(drill), len(sweep.Ops))
	}
	return nil
}

// ----------------------------------------------------------------- read

// serving is a live node plus what the correctness checks need from before
// it started mutating.
type serving struct {
	nd   *node
	b    *built
	base counts
	warm *loadgen.Plan
	plan *loadgen.Plan
}

// setUp builds the serving node and request plans of read and ingest; the
// time it takes is setup_s, and its build stage is batch_pairs_per_s.
func (rc *run) setUp(sm *samples, n int, mix string, ops int, durable bool, parent int) (*serving, *qb.Corpus, error) {
	id := rc.tr.start("setup", parent, 0)
	defer rc.tr.end(id)
	t0 := time.Now()
	corpus := realWorld(n, rc.seed)
	rc.st.gen = time.Since(t0)
	b, err := buildState(corpus, rc.procs, rc.tr, id)
	if err != nil {
		return nil, nil, err
	}
	rc.st.built(b)
	sv := &serving{b: b, base: countsOf(b.res)}
	if sv.warm, err = buildPlan(corpus, n, rc.seed^0x77a12, "explorer", rc.sz.warmup); err != nil {
		return nil, nil, err
	}
	if sv.plan, err = buildPlan(corpus, n, rc.seed, mix, ops); err != nil {
		return nil, nil, err
	}
	// A durable node commits its state as the pre-run snapshot and fsyncs
	// every insert to a WAL; the other one has neither.
	if sv.nd, err = startNode(rc.dir("node"), b, durable, durable); err != nil {
		return nil, nil, err
	}
	sm.setup = append(sm.setup, time.Since(t0).Seconds())
	sm.pairs = append(sm.pairs, b.pairsPerSec())
	rc.digests = append(rc.digests, sv.warm.Digest, sv.plan.Digest)
	return sv, corpus, nil
}

// readRound drives the explorer mix against an in-process server with no
// WAL. Afterwards: a checkpoint, a restart from it and the restart drill on
// the restarted server, whose log replays onto the server that took the
// reads (it never saw a write).
func (rc *run) readRound(sm *samples) error {
	n := rc.sz.readN
	sv, corpus, err := rc.setUp(sm, n, "explorer", rc.sz.readOps, false, 0)
	if err != nil {
		return err
	}
	defer sv.nd.close()
	drill, err := insertOps(corpus, n, rc.seed, rc.sz.drill)
	if err != nil {
		return err
	}
	rc.digests = append(rc.digests, digestOps(drill))
	if err := rc.keepForProbes(sv.b.res); err != nil {
		return err
	}

	tg := inProcess(sv.nd.h)
	drive(tg, sv.warm.Ops, rc.procs, driveOpts{})
	rc.settle()
	rc.timedTraffic(sm, drive(tg, sv.plan.Ops, rc.procs, driveOpts{tr: rc.tr}))
	sm.heapMB = append(sm.heapMB, rc.heapLiveMB(sv))
	rc.checkRead(sv)

	if err := rc.checkpointed(sv.nd, sm, 0); err != nil {
		return err
	}
	live, err := rc.restarted(sv.nd.dir, sm, 0, nil)
	if err != nil {
		return err
	}
	defer live.close()
	if err := rc.drilled(live, sv.nd.srv, drill, sm, 0); err != nil {
		return err
	}
	if rc.last() {
		rc.rep.note("read: n=%d, %d requests after a %d-request warm-up per round", n, len(sv.plan.Ops), len(sv.warm.Ops))
	}
	return nil
}

// --------------------------------------------------------------- ingest

// ingestRound drives the ingest mix against a server with a real WAL on the
// OS filesystem, then crashes it and recovers: the log's prefix replays
// onto the pre-run snapshot. Afterwards: a checkpoint of the grown state
// and a restart from it.
func (rc *run) ingestRound(sm *samples) error {
	n := rc.sz.ingestN
	sv, _, err := rc.setUp(sm, n, "ingest", rc.sz.ingestOps, true, 0)
	if err != nil {
		return err
	}
	defer sv.nd.close()
	if err := rc.keepForProbes(sv.b.res); err != nil {
		return err
	}

	tg := inProcess(sv.nd.h)
	drive(tg, sv.warm.Ops, rc.procs, driveOpts{})
	rc.settle()
	st := drive(tg, sv.plan.Ops, rc.procs, driveOpts{tr: rc.tr, keep: map[string]bool{loadgen.OpInsert: true}})
	rc.timedTraffic(sm, st)
	sm.inserts = append(sm.inserts, st.lat[loadgen.OpInsert]...)
	sm.heapMB = append(sm.heapMB, rc.heapLiveMB(sv))
	body, err := get(tg, "/v1/stats")
	if err != nil {
		return err
	}
	after, grown, err := statsCounts(body)
	if err != nil {
		return err
	}

	if err := rc.crashRecovered(sv.nd.dir, sv.base, st.replies, sm, 0); err != nil {
		return err
	}
	if err := rc.checkpointed(sv.nd, sm, 0); err != nil {
		return err
	}
	live, err := rc.restarted(sv.nd.dir, sm, 0, nil)
	if err != nil {
		return err
	}
	live.close()
	if rc.last() {
		pairs := func(c counts) float64 { return float64(c.full + c.partial + c.compl) }
		rc.rep.note("ingest: per round n=%d grew to %d under %d requests, its stored pairs %.2f-fold", n, grown, len(sv.plan.Ops), pairs(after)/pairs(sv.base))
	}
	return nil
}

// crashRecovered reopens dir's WAL as a crashed process would find it and
// replays a prefix onto the pre-run snapshot: wal_replay_rps. It verifies
// that every acked insert is in the log, and that the replayed state has
// exactly the relationships the live server reported for that prefix.
func (rc *run) crashRecovered(dir string, base counts, replies []reply, sm *samples, parent int) error {
	id := rc.tr.start("crashReplay", parent, 0)
	defer rc.tr.end(id)
	pre, err := loadState(dir)
	if err != nil {
		return err
	}
	rc.settle()
	recs, rps, err := crashReplay(dir, pre, rc.sz.replayPrefix)
	if err != nil {
		return err
	}
	sm.replay = append(sm.replay, rps)
	acks := map[string]insertAck{}
	var acked []string
	for _, rp := range replies {
		if rp.status != http.StatusCreated {
			continue
		}
		var a insertAck
		if err := json.Unmarshal(rp.body, &a); err != nil {
			rc.rep.fail("undecodable insert ack: %v", err)
			continue
		}
		acks[a.URI] = a
		acked = append(acked, a.URI)
	}
	rc.rep.attempted += 2
	if missing := missingFromWAL(acked, recs); len(missing) > 0 {
		rc.rep.fail("%d acked inserts missing from the reopened WAL, first %s", len(missing), missing[0])
	}
	want := base
	for _, rec := range recs[:min(len(recs), rc.sz.replayPrefix)] {
		a, ok := acks[rec.URI.Value]
		if !ok {
			rc.rep.fail("WAL record %s was never acked", rec.URI.Value)
		}
		want = want.plus(counts{a.NewFull, a.NewPartial, a.NewCompl})
	}
	body, err := get(inProcess(pre.Handler()), "/v1/stats")
	if err != nil {
		return err
	}
	got, _, err := statsCounts(body)
	if err != nil {
		return err
	}
	if err := checkCounts("state after replaying the WAL prefix", got, want); err != nil {
		rc.rep.fail("%v", err)
	}
	return nil
}

// ------------------------------------------------------------- topology

// topologyRound drives a URI-addressed mix through the gate over loopback
// sockets. Afterwards shard 0 goes through crash recovery, a checkpoint and
// a restart like any single node.
func (rc *run) topologyRound(sm *samples) error {
	id := rc.tr.start("setup", 0, 0)
	t0 := time.Now()
	tp, err := buildTopo(rc.dir("fleet"), rc.seed, rc.sz.shardObs, rc.procs, rc.procs)
	if err != nil {
		return err
	}
	defer func() { tp.close() }()
	warm := buildURIPlan(tp.combined, rc.seed^0x77a12, rc.sz.warmup/2, "http://example.org/bench/warm/")
	plan := buildURIPlan(tp.combined, rc.seed, rc.sz.topoOps, "http://example.org/bench/obs/")
	sm.setup = append(sm.setup, time.Since(t0).Seconds())
	rc.tr.end(id)
	var pairs, secs float64
	for _, b := range tp.builds {
		nObs := float64(b.space.N())
		pairs += nObs * (nObs - 1)
		secs += (b.compile + b.compute + b.sort).Seconds()
	}
	sm.pairs = append(sm.pairs, pairs/secs)
	rc.st.gen = tp.gen
	rc.st.built(tp.builds[0])
	rc.digests = append(rc.digests, warm.Digest, plan.Digest)
	if err := rc.keepForProbes(tp.builds[0].res); err != nil {
		return err
	}

	keep := map[string]bool{loadgen.OpInsert: true}
	warmStats := drive(tp.gateTarget(), warm.Ops, rc.procs, driveOpts{keep: keep})
	rc.settle()
	st, err := rc.fleetPhase(tp, plan)
	if err != nil {
		return err
	}
	rc.timedTraffic(sm, st)
	sm.inserts = append(sm.inserts, st.lat[loadgen.OpInsert]...)
	sm.heapMB = append(sm.heapMB, rc.heapLiveMB(tp))

	rc.rep.attempted++
	if err := tp.awaitLevel(10 * time.Second); err != nil {
		rc.rep.fail("%v", err)
	}
	if rc.last() {
		if err := rc.checkTopology(tp, warm, warmStats, plan, st); err != nil {
			return err
		}
	}

	// Shard 0's acks: the gate relays the owning shard's 201 body verbatim.
	nd := tp.shards[0].primary
	var shard0 []reply
	owned := map[string]bool{}
	for _, ds := range tp.shards[0].datasets {
		owned[ds] = true
	}
	collect := func(p *loadgen.Plan, st *runStats) {
		for _, rp := range st.replies {
			var body insertBody
			if json.Unmarshal(p.Ops[rp.op].Body, &body) == nil && owned[body.Dataset] {
				shard0 = append(shard0, rp)
			}
		}
	}
	collect(warm, warmStats)
	collect(plan, st)
	if err := rc.crashRecovered(nd.dir, tp.base[0], shard0, sm, 0); err != nil {
		return err
	}
	if err := rc.checkpointed(nd, sm, 0); err != nil {
		return err
	}
	if rc.traced() { // after the checks: they know nothing of these writes
		if err := rc.probeFleetWrites(tp); err != nil {
			return err
		}
	}
	// Restart shard 0 from its checkpoint with the fleet torn down, so no
	// follower is left tailing a primary that is gone.
	tp.close()
	tp = nil
	live, err := rc.restarted(nd.dir, sm, 0, nil)
	if err != nil {
		return err
	}
	live.close()
	if rc.last() {
		rc.rep.note("topology: 3 shards × %d obs, %d requests through the gate per round", 2*rc.sz.shardObs, len(plan.Ops))
	}
	return nil
}

// ------------------------------------------------------- correctness

// sampleObs picks k distinct observation indices in [0, n), seeded.
func sampleObs(seed int64, n, k int) []int {
	idx := make([]int, 0, k)
	step := max(n/k, 1)
	off := int(uint64(seed) % uint64(step))
	for i := off; i < n && len(idx) < k; i += step {
		idx = append(idx, i)
	}
	return idx
}

// checkRead compares sampled /v1/related fan-out sizes with the sizes
// derived from the Result.
func (rc *run) checkRead(sv *serving) {
	sample := sampleObs(rc.seed, sv.b.space.N(), rc.sz.samples)
	want := fanoutsOf(sv.b.res, sample)
	for _, i := range sample {
		body, err := get(inProcess(sv.nd.h), fmt.Sprintf("/v1/related?obs=%d", i))
		rc.rep.attempted++
		if err != nil {
			rc.rep.fail("%v", err)
			continue
		}
		if err := checkFanout(i, body, want[i]); err != nil {
			rc.rep.fail("%v", err)
		}
	}
}

// checkTopology replays every acked insert into an unsharded oracle and
// compares sampled gate answers byte for byte.
func (rc *run) checkTopology(tp *topo, warm *loadgen.Plan, warmStats *runStats, plan *loadgen.Plan, st *runStats) error {
	or, err := buildOracle(tp.combined, rc.procs)
	if err != nil {
		return err
	}
	defer or.close()
	otg := inProcess(or.h)
	replay := func(p *loadgen.Plan, s *runStats) {
		rs := append([]reply(nil), s.replies...)
		sort.Slice(rs, func(i, j int) bool { return rs[i].op < rs[j].op })
		for _, rp := range rs {
			if rp.status != http.StatusCreated {
				continue
			}
			status, body, _, err := issue(otg, p.Ops[rp.op])
			if err != nil || status != http.StatusCreated {
				rc.rep.fail("replaying acked insert into the oracle: status %d err %v: %s", status, err, body)
			}
		}
	}
	replay(warm, warmStats)
	replay(plan, st)
	var uris []string
	for _, ds := range tp.combined.Datasets {
		for _, i := range sampleObs(rc.seed, len(ds.Observations), max(rc.sz.samples/len(tp.combined.Datasets), 1)) {
			uris = append(uris, ds.Observations[i].URI.Value)
		}
	}
	for _, uri := range uris {
		path := "/v1/related?obs=" + url.QueryEscape(uri)
		rc.rep.attempted++
		got, err := get(tp.gateTarget(), path)
		if err != nil {
			rc.rep.fail("%v", err)
			continue
		}
		want, err := get(otg, path)
		if err != nil {
			rc.rep.fail("oracle: %v", err)
			continue
		}
		if err := checkSameBytes(path, got, want); err != nil {
			rc.rep.fail("%v", err)
		}
	}
	return nil
}

// cleanup removes the run's scratch directory.
func (rc *run) cleanup() { _ = os.RemoveAll(rc.workdir) }
