package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"time"

	"rdfcube/internal/bitvec"
	"rdfcube/internal/core"
	"rdfcube/internal/faultfs"
	"rdfcube/internal/gen"
	"rdfcube/internal/loadgen"
	"rdfcube/internal/obsv"
	"rdfcube/internal/qb"
	"rdfcube/internal/wal"
)

// The per-layer metrics of the traced run. Three sources, cheapest first:
// the stage timings the workload's own lifecycle collected (stages), the
// reads the traced topology phase samples while it runs (fleetSamples),
// and layer probes, which replay the workload's generated inputs call by
// call against each layer's public functions, because spans stay outside
// the program. Probes run on copies of the workload's pre-traffic state,
// once per run. README.md maps each metric to the end-to-end metric it
// should move.

// freshCorpus generates another copy of the workload's corpus (servers and
// core.Incremental adopt and grow the one they are given).
func (rc *run) freshCorpus() *qb.Corpus {
	switch rc.workload {
	case "batch":
		return realWorld(rc.sz.batchN, rc.seed)
	case "read":
		return realWorld(rc.sz.readN, rc.seed)
	case "ingest":
		return realWorld(rc.sz.ingestN, rc.seed)
	default: // topology: one shard's view of the world
		worlds, _ := gen.ShardWorlds(gen.ShardWorldsConfig{Seed: rc.seed, ObsPerDataset: rc.sz.shardObs})
		return worlds[0].Corpus
	}
}

func corpusSize(c *qb.Corpus) int {
	n := 0
	for _, ds := range c.Datasets {
		n += len(ds.Observations)
	}
	return n
}

// timeMedian runs fn k times and returns the median wall time.
func timeMedian(k int, fn func()) time.Duration {
	ds := make([]time.Duration, k)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = time.Since(t0)
	}
	return medianDur(ds)
}

// corpusKey names the input of the kernel and node probes.
func (rc *run) corpusKey() string {
	c := rc.freshCorpus()
	return fmt.Sprintf("%s/%d/%d", c.Datasets[0].URI.Value, corpusSize(c), rc.seed)
}

// probeOnce runs probe unless an earlier workload of this process ran it
// on the same input, whose metrics it then reports again.
func (rc *run) probeOnce(key string, probe func() error) error {
	if vals, ok := rc.probed[key]; ok {
		for name, v := range vals {
			rc.rep.set(name, v)
		}
		rc.rep.note("layer probes of %s: reported from this process's earlier run", key)
		return nil
	}
	had := maps.Clone(rc.rep.values)
	if err := probe(); err != nil {
		return err
	}
	if rc.probed != nil {
		vals := map[string]float64{}
		for name, v := range rc.rep.values {
			if _, ok := had[name]; !ok {
				vals[name] = v
			}
		}
		rc.probed[key] = vals
	}
	return nil
}

func (rc *run) layerProbes() error {
	root := rc.tr.start("probes", 0, 0)
	defer rc.tr.end(root)
	rc.emitStages()
	err := rc.probeOnce(rc.corpusKey(), func() error {
		if err := rc.probeKernels(root); err != nil {
			return err
		}
		return rc.probeNodes(root)
	})
	if err != nil {
		return err
	}
	// Materialisation: what the lifecycle's run into a collecting Result
	// cost beyond the same run into a counter.
	n := float64(rc.st.obs)
	counting := n * (n - 1) / rc.rep.values["core.cubemask.pairs_per_s"]
	rc.rep.set("core.result.materialize_s", rc.st.compute.Seconds()-counting)
	if rc.workload != "topology" { // whose own traced phase has reported the fleet's metrics
		if err := rc.probeOnce(fmt.Sprintf("fleet/%d", rc.seed), func() error { return rc.probeFleet(root) }); err != nil {
			return err
		}
	}
	return rc.probeClient()
}

// emitStages reports what the lifecycle's own layer calls cost.
func (rc *run) emitStages() {
	r, st := rc.rep, rc.st
	mb := float64(st.snapBytes) / 1e6
	r.set("gen.corpus_s", st.gen.Seconds())
	r.set("core.compile_s", st.compile.Seconds())
	r.set("core.result.sort_s", st.sort.Seconds())
	r.set("core.result.partial_pairs", float64(st.partialPairs))
	r.set("snapshot.encode_mb_per_s", mb/st.encode.Seconds())
	r.set("snapshot.rotator_write_s", st.commit.Seconds())
	r.set("snapshot.bytes", float64(st.snapBytes))
	r.set("snapshot.decode_mb_per_s", mb/st.rec.load.Seconds())
	r.set("snapshot.decode_alloc_mb", st.rec.loadAllocMB)
	r.set("serve.new_s", st.rec.serveNew.Seconds())
	r.set("serve.heap_bytes_per_pair", st.rec.serveAllocMB*1e6/float64(max(st.rec.storedPairs, 1)))
}

// ------------------------------------------------ gen, core, lattice, bitvec

func (rc *run) probeKernels(parent int) error {
	r := rc.rep
	s, err := core.NewSpace(rc.freshCorpus())
	if err != nil {
		return err
	}
	n := float64(s.N())
	pairs := n * (n - 1)
	r.set("core.clustering.recall", rc.recall)

	var om *core.OccurrenceMatrix
	r.set("core.om_build_s", rc.tr.timed("core.BuildOccurrenceMatrix", parent, func() { om = core.BuildOccurrenceMatrix(s) }).Seconds())

	lat := core.BuildLattice(s)
	r.set("lattice.build_s", timeMedian(3, func() {
		rc.tr.timed("core.BuildLattice", parent, func() { lat = core.BuildLattice(s) })
	}).Seconds())
	cubes := lat.Cubes()
	r.set("lattice.cubes", float64(len(cubes)))
	comparable := 0
	for _, a := range cubes {
		for _, b := range cubes {
			if a != b && a.Sig.LE(b.Sig) {
				comparable++
			}
		}
	}
	r.set("lattice.comparable_pair_frac", float64(comparable)/float64(max(len(cubes)*(len(cubes)-1), 1)))

	// Every kernel into a counting sink, serial; cubeMasking again on the
	// worker pool for the scaling ratio.
	count := func(name string, alg core.Algorithm, opts core.Options) (time.Duration, error) {
		var cerr error
		d := rc.tr.timed(name, parent, func() {
			var c core.Counter
			cerr = core.Compute(s, alg, opts, &c)
		})
		return d, cerr
	}
	all := core.Options{Tasks: core.TaskAll}
	tBase, err := count("core.Compute.baseline", core.AlgorithmBaseline, all)
	if err != nil {
		return err
	}
	tClus, err := count("core.Compute.clustering", core.AlgorithmClustering, all)
	if err != nil {
		return err
	}
	tMask, err := count("core.Compute.cubemasking", core.AlgorithmCubeMasking, all)
	if err != nil {
		return err
	}
	tPar, err := count("core.Compute.parallel", core.AlgorithmParallel, core.Options{Tasks: core.TaskAll, Workers: rc.procs})
	if err != nil {
		return err
	}
	r.set("core.baseline.pairs_per_s", pairs/tBase.Seconds())
	r.set("core.clustering.pairs_per_s", pairs/tClus.Seconds())
	r.set("core.cubemask.pairs_per_s", pairs/tMask.Seconds())
	r.set("core.cubemask.par_speedup", tMask.Seconds()/tPar.Seconds())

	// Pruning counters through Options.Obs, on a full-containment sweep:
	// with partial containment in the task set, as in the pipeline, every
	// cube pair that shares one comparable dimension must be compared and
	// the lattice prunes next to nothing.
	col := obsv.NewCollector()
	var c core.Counter
	if err := core.Compute(s, core.AlgorithmCubeMasking, core.Options{Tasks: core.TaskFull, Obs: col}, &c); err != nil {
		return err
	}
	s.SetRecorder(nil)
	ctr := col.Snapshot()
	r.set("core.cubemask.pruned_frac", float64(ctr[core.CtrCubePairsPruned])/float64(max(ctr[core.CtrCubePairsConsidered], 1)))

	// bitvec.SubsetBatch over the OM rows: a sample of rows against every
	// row, in batches of bitvec.BatchMax.
	rows := om.Rows
	probes := min(len(rows), 64)
	var sink uint64
	d := rc.tr.timed("bitvec.SubsetBatch", parent, func() {
		for i := 0; i < probes; i++ {
			v := rows[i*len(rows)/probes]
			for lo := 0; lo < len(rows); lo += bitvec.BatchMax {
				hi := min(lo+bitvec.BatchMax, len(rows))
				sink += bitvec.SubsetBatch(v, rows[lo:hi], 0, s.NumCols())
			}
		}
	})
	runtime.KeepAlive(sink)
	r.set("bitvec.subset_ns_per_row", float64(d.Nanoseconds())/float64(probes*len(rows)))
	return nil
}

// ------------------------------------- core.Incremental, wal, serve on one node

// probeInserts builds 2k insert ops over corpus under URIs of their own,
// with the observations and WAL records the handler would decode them to.
func (rc *run) probeInserts(corpus *qb.Corpus, k int) ([]loadgen.Op, []*qb.Observation, []wal.Record, error) {
	ops, err := insertOps(corpus, corpusSize(corpus), rc.seed^0x9e0be, 2*k)
	if err != nil {
		return nil, nil, nil, err
	}
	obs := make([]*qb.Observation, len(ops))
	recs := make([]wal.Record, len(ops))
	for i := range ops {
		ops[i].Body = bytes.Replace(ops[i].Body, []byte("/load/obs/"), []byte("/load/probe/"), 1)
		if obs[i], recs[i], err = decodeInsert(corpus, ops[i].Body); err != nil {
			return nil, nil, nil, err
		}
	}
	return ops, obs, recs, nil
}

// routeOps builds single-route probe plans that share one zipf draw of
// target observations.
func (rc *run) routeOps(corpus *qb.Corpus) (map[string][]loadgen.Op, error) {
	p, err := buildPlan(corpus, corpusSize(corpus), rc.seed, "explorer", 4*rc.sz.probeOps)
	if err != nil {
		return nil, err
	}
	out := map[string][]loadgen.Op{}
	for _, op := range p.Ops {
		_, idx, ok := strings.Cut(op.Path, "?obs=")
		if !ok || len(out[loadgen.OpRelated]) >= rc.sz.probeOps {
			continue
		}
		for _, kind := range []string{loadgen.OpRelated, loadgen.OpContains, loadgen.OpComplements} {
			out[kind] = append(out[kind], loadgen.Op{Kind: kind, Method: "GET", Path: "/v1/" + kind + "?obs=" + idx})
		}
		out[loadgen.OpObs] = append(out[loadgen.OpObs], loadgen.Op{Kind: loadgen.OpObs, Method: "GET", Path: "/v1/obs/" + idx})
		out[loadgen.OpStats] = append(out[loadgen.OpStats], loadgen.Op{Kind: loadgen.OpStats, Method: "GET", Path: "/v1/stats"})
	}
	return out, nil
}

// probeNodes prices one insert layer by layer and every read route alone.
// The same k inserts go, one at a time and interleaved so that a busy
// second on the host slows every path alike, through wal.Log.Append on its
// own (OS file, then memory), core.Incremental.Insert on its own, a
// WAL-less server's handler and a durable server's handler; each of the
// last three owns a copy of the workload's pre-traffic state.
func (rc *run) probeNodes(parent int) error {
	r, k := rc.rep, rc.sz.probeOps
	alone := rc.probe
	rc.probe = nil
	var served [2]*built
	for i := range served {
		var err error
		if served[i], err = cloneState(rc.freshCorpus(), alone.res); err != nil {
			return err
		}
	}
	ops, obs, recs, err := rc.probeInserts(alone.corpus, k)
	if err != nil {
		return err
	}
	inc := core.NewIncrementalFrom(alone.space, core.TaskAll, alone.res, alone.lat)
	volatile, err := startNode("", served[0], false, false)
	if err != nil {
		return err
	}
	defer volatile.close()
	durable, err := startNode(rc.dir("probe-node"), served[1], false, true)
	if err != nil {
		return err
	}
	defer durable.close()
	corpus := served[1].corpus
	walPathOS := rc.dir("probe.wal")
	osLog, _, err := wal.Open(faultfs.OS{}, walPathOS)
	if err != nil {
		return err
	}
	defer osLog.Close()
	memLog, _, err := wal.Open(faultfs.NewMemFS(), "probe.wal")
	if err != nil {
		return err
	}
	defer memLog.Close()

	var tOS, tMem, tInc, tVol, tDur []time.Duration
	vtg, dtg := inProcess(volatile.h), inProcess(durable.h)
	for i := 0; i < k; i++ {
		var e1, e2, e3 error
		tOS = append(tOS, rc.tr.timed("wal.Append.os", parent, func() { e1 = osLog.Append(recs[i]) }))
		tMem = append(tMem, rc.tr.timed("wal.Append.mem", parent, func() { e2 = memLog.Append(recs[i]) }))
		tInc = append(tInc, rc.tr.timed("core.Incremental.Insert", parent, func() { _, e3 = inc.Insert(obs[i]) }))
		for _, e := range []error{e1, e2, e3} {
			if e != nil {
				return fmt.Errorf("insert probe %d: %w", i, e)
			}
		}
		for _, path := range []struct {
			tg   target
			name string
			lat  *[]time.Duration
		}{{vtg, "serve.insert.volatile", &tVol}, {dtg, "serve.insert.durable", &tDur}} {
			id := rc.tr.start(path.name, parent, rc.tr.request())
			status, body, d, err := issue(path.tg, ops[i])
			rc.tr.end(id)
			r.attempted++
			if err != nil || status != http.StatusCreated {
				r.fail("%s probe: status %d err %v: %s", path.name, status, err, body)
				continue
			}
			*path.lat = append(*path.lat, d)
		}
	}
	sOS, sMem, sInc, sVol, sDur := summarize(tOS), summarize(tMem), summarize(tInc), summarize(tVol), summarize(tDur)
	r.set("core.incremental.insert_us_p50", sInc.P50)
	r.set("core.incremental.insert_us_p99", sInc.P99)
	r.set("wal.append_os_us_p50", sOS.P50)
	r.set("wal.append_os_us_p99", sOS.P99)
	r.set("wal.append_mem_us_p50", sMem.P50)
	r.set("wal.fsync_share", 1-sMem.P50/sOS.P50)
	r.set("wal.bytes_per_record", float64(osLog.RecordBytes())/float64(k))
	r.set("serve.insert.us_p50", sDur.P50)
	r.set("serve.insert.us_p99", sDur.P99)
	self := sVol.P50 - sInc.P50
	r.set("serve.insert.self_us_p50", self)
	// Three independently measured parts against the measured whole, insert
	// by insert: (self + wal + inc) is the WAL-less handler's time plus the
	// standalone append's, over the durable handler's for the same insert.
	var ratios []float64
	for i := range min(len(tVol), len(tDur)) {
		ratios = append(ratios, float64(tVol[i]+tOS[i])/float64(tDur[i]))
	}
	rc.reconcile("bench.reconcile_insert_ratio", median(ratios), true,
		fmt.Sprintf("per insert, (serve.insert.self + wal.append_os + core.incremental.insert) over the durable insert; medians %.0f + %.0f + %.0f against %.0f us", self, sOS.P50, sInc.P50, sDur.P50))
	r.note("insert reconciliation by medians: (%.0f + %.0f + %.0f) / %.0f = %.3f", self, sOS.P50, sInc.P50, sDur.P50, (self+sOS.P50+sInc.P50)/sDur.P50)

	osLog.Close()
	var reopened []wal.Record
	d := timeMedian(3, func() {
		rc.tr.timed("wal.Open", parent, func() {
			var l *wal.Log
			if l, reopened, err = wal.Open(faultfs.OS{}, walPathOS); err == nil {
				l.Close()
			}
		})
	})
	if err != nil {
		return err
	}
	r.attempted++
	if len(reopened) != k {
		r.fail("wal.Open returned %d of %d appended records", len(reopened), k)
	}
	r.set("wal.open_records_per_s", float64(k)/d.Seconds())

	// Follower apply: the next k records through ApplyReplicated.
	var applied int
	d = rc.tr.timed("serve.ApplyReplicated", parent, func() { applied, err = volatile.srv.ApplyReplicated(recs[k:]) })
	if err != nil {
		return err
	}
	r.attempted++
	if applied != k {
		r.fail("ApplyReplicated applied %d of %d records", applied, k)
	}
	r.set("serve.apply_replicated_rps", float64(applied)/d.Seconds())

	// Every read route, one uncontended client on Handler().
	routes, err := rc.routeOps(corpus)
	if err != nil {
		return err
	}
	var containsP50 float64
	for _, kind := range []string{loadgen.OpRelated, loadgen.OpContains, loadgen.OpComplements, loadgen.OpObs, loadgen.OpStats} {
		drive(dtg, routes[kind][:min(len(routes[kind]), 20)], 1, driveOpts{}) // warm
		st := drive(dtg, routes[kind], 1, driveOpts{tr: rc.tr, keep: map[string]bool{loadgen.OpRelated: true}})
		r.count(st)
		sum := summarize(st.lat[kind])
		r.set("serve."+kind+".us_p50", sum.P50)
		r.set("serve."+kind+".us_p99", sum.P99)
		switch kind {
		case loadgen.OpContains:
			containsP50 = sum.P50
		case loadgen.OpRelated:
			sizes := make([]float64, 0, len(st.bytes[kind]))
			for _, n := range st.bytes[kind] {
				sizes = append(sizes, float64(n))
			}
			r.set("serve.related.resp_bytes_p50", median(sizes))
			var total time.Duration
			for _, d := range st.lat[kind] {
				total += d
			}
			neighbors := 0
			for _, rp := range st.replies {
				f, err := relatedSizes(rp.body)
				if err != nil {
					return err
				}
				neighbors += f.neighbors()
			}
			r.set("serve.related.ns_per_neighbor", float64(total.Nanoseconds())/float64(max(neighbors, 1)))
		}
	}

	// Contention: contains under an ingest mix with every client busy,
	// against the uncontended median above.
	mixed, err := buildPlan(corpus, corpusSize(corpus), rc.seed^0x1c0de, "ingest", 2*k)
	if err != nil {
		return err
	}
	for i := range mixed.Ops { // URIs of their own: the probe's are taken
		if mixed.Ops[i].Kind == loadgen.OpInsert {
			mixed.Ops[i].Body = bytes.Replace(mixed.Ops[i].Body, []byte("/load/obs/"), []byte("/load/contended/"), 1)
		}
	}
	contended := drive(dtg, mixed.Ops, rc.procs, driveOpts{})
	r.count(contended)
	r.set("serve.contains.contended_ratio", summarize(contended.lat[loadgen.OpContains]).P50/containsP50)
	return nil
}

// reconcile reports a parts-over-whole ratio and, when it reconciles a
// number of the workload itself, fails the run if the parts miss the whole
// by more than the sizes' tolerance (10 %).
func (rc *run) reconcile(name string, ratio float64, gate bool, what string) {
	rc.rep.set(name, ratio)
	if !gate {
		return
	}
	rc.rep.attempted++
	if tol := rc.sz.reconcileTol; ratio < 1-tol || ratio > 1+tol {
		rc.rep.fail("%s = %.3f outside [%.2f, %.2f]: %s", name, ratio, 1-tol, 1+tol, what)
	}
}

// ------------------------------------------------------- replica, gate

// fleetSamples are the direct reads of a traced fleet phase: after every
// related answer from the gate, the same client sends the same read
// straight to each shard, so gate latency and the slowest shard's latency
// are measured for one request under one load.
type fleetSamples struct {
	mu                sync.Mutex
	slowest, overhead []time.Duration
	spent             time.Duration // client time the direct reads took
}

func (fs *fleetSamples) after(tp *topo, tr *tracer) func(int, loadgen.Op, time.Duration) {
	return func(_ int, op loadgen.Op, viaGate time.Duration) {
		if op.Kind != loadgen.OpRelated {
			return
		}
		rid := tr.request()
		var worst time.Duration
		t0 := time.Now()
		for i := range tp.shards {
			id := tr.start("shard.related", 0, rid)
			_, _, d, err := issue(tp.shardTarget(i), op)
			tr.end(id)
			if err != nil {
				return
			}
			worst = max(worst, d)
		}
		fs.mu.Lock()
		fs.slowest = append(fs.slowest, worst)
		fs.overhead = append(fs.overhead, viaGate-worst)
		fs.spent += time.Since(t0)
		fs.mu.Unlock()
	}
}

// fleetPhase drives plan through the gate with every client busy. The
// traced run samples direct shard reads meanwhile, reads the gate's
// counters around the phase; with probeFleetWrites, which must follow once
// the phase's answers have been checked, that is every gate.* and
// replica.* metric.
func (rc *run) fleetPhase(tp *topo, plan *loadgen.Plan) (*runStats, error) {
	opts := driveOpts{tr: rc.tr, keep: map[string]bool{loadgen.OpInsert: true}}
	if !rc.traced() {
		return drive(tp.gateTarget(), plan.Ops, rc.procs, opts), nil
	}
	r := rc.rep
	fs := &fleetSamples{}
	opts.after = fs.after(tp, rc.tr)
	before, err := tp.gateStats()
	if err != nil {
		return nil, err
	}
	st := drive(tp.gateTarget(), plan.Ops, rc.procs, opts)
	after, err := tp.gateStats()
	if err != nil {
		return nil, err
	}
	if rc.workload == "topology" { // elsewhere this is a probe's phase, not the workload's
		rc.sampling = fs.spent
	}
	sl, ov := summarize(fs.slowest), summarize(fs.overhead)
	whole := summarize(st.lat[loadgen.OpRelated])
	r.set("gate.related.direct_us_p50", sl.P50)
	r.set("gate.related.overhead_us_p50", ov.P50)
	r.set("gate.related.overhead_us_p99", ov.P99)
	// Elsewhere than on topology this is a probe's toy fleet, whose p50 is
	// no metric of the workload: reported, not asserted.
	rc.reconcile("bench.reconcile_related_ratio", (sl.P50+ov.P50)/whole.P50, rc.workload == "topology",
		fmt.Sprintf("slowest direct shard %.0f + gate overhead %.0f us against the phase's related p50 %.0f us over %d reads", sl.P50, ov.P50, whole.P50, whole.N))
	reads := float64(max(len(st.lat[loadgen.OpRelated])+len(st.lat[loadgen.OpContains])+len(st.lat[loadgen.OpComplements]), 1))
	fired := after.HedgeFired - before.HedgeFired
	r.set("gate.hedge_fired_frac", float64(fired)/(reads*float64(len(tp.shards))))
	r.set("gate.hedge_won_frac", float64(after.HedgeWon-before.HedgeWon)/float64(max(fired, 1)))
	r.set("gate.partial_frac", float64(after.PartialReads-before.PartialReads)/reads)

	var boots []float64
	for _, sh := range tp.shards {
		boots = append(boots, sh.bootstrap.Seconds())
	}
	r.set("replica.bootstrap_s", median(boots))
	return st, nil
}

// probeFleetWrites sends inserts one at a time, half through the gate and
// half straight at the owning primary; each direct ack also starts a lag
// clock that stops when the follower serves the new observation.
func (rc *run) probeFleetWrites(tp *topo) error {
	r := rc.rep
	plan := buildURIPlan(tp.combined, rc.seed^0x9e0be, 6*rc.sz.probeOps, "http://example.org/bench/probe/")
	owner := map[string]int{}
	for i, sh := range tp.shards {
		for _, ds := range sh.datasets {
			owner[ds] = i
		}
	}
	var gateIns, directIns, lag []time.Duration
	sent := 0
	for _, op := range plan.Ops {
		if op.Kind != loadgen.OpInsert || sent >= rc.sz.probeOps {
			continue
		}
		sent++
		var body insertBody
		if err := json.Unmarshal(op.Body, &body); err != nil {
			return err
		}
		sh := owner[body.Dataset]
		tg, name := tp.gateTarget(), "gate.insert"
		if sent%2 == 1 {
			tg, name = tp.shardTarget(sh), "shard.insert"
		}
		id := rc.tr.start(name, 0, rc.tr.request())
		status, rb, d, err := issue(tg, op)
		rc.tr.end(id)
		acked := time.Now()
		r.attempted++
		if err != nil || status != http.StatusCreated {
			r.fail("%s probe: status %d err %v: %s", name, status, err, rb)
			continue
		}
		if sent%2 == 0 {
			gateIns = append(gateIns, d)
			continue
		}
		directIns = append(directIns, d)
		path := "/v1/related?obs=" + url.QueryEscape(body.URI)
		ftg := inProcess(tp.shards[sh].fol.Handler())
		for {
			if status, _, _, err := issue(ftg, loadgen.Op{Method: "GET", Path: path}); err == nil && status == http.StatusOK {
				lag = append(lag, time.Since(acked))
				break
			}
			if time.Since(acked) > 5*time.Second {
				r.fail("follower of %s never served %s", tp.shards[sh].name, body.URI)
				break
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	r.set("gate.insert.overhead_us_p50", summarize(gateIns).P50-summarize(directIns).P50)
	lagSum := summarize(lag)
	r.set("replica.lag_ms_p50", lagSum.P50/1e3)
	r.set("replica.lag_ms_p99", lagSum.P99/1e3)
	r.set("gate.write_retries", float64(tp.gateRec.Snapshot()["gate.write.retries"]))
	return nil
}

// probeFleet gives the workloads that run no fleet their gate.* and
// replica.* metrics: a fleet a third of topology's size takes a short phase
// of topology's mix.
func (rc *run) probeFleet(parent int) error {
	var tp *topo
	var err error
	rc.tr.timed("fleet.setup", parent, func() {
		tp, err = buildTopo(rc.dir("probe-fleet"), rc.seed, max(rc.sz.shardObs/3, 10), rc.procs, rc.procs)
	})
	if err != nil {
		return err
	}
	defer tp.close()
	plan := buildURIPlan(tp.combined, rc.seed, rc.sz.fleetProbeOps, "http://example.org/bench/obs/")
	st, err := rc.fleetPhase(tp, plan)
	if err != nil {
		return err
	}
	rc.rep.count(st)
	return rc.probeFleetWrites(tp)
}

// gateCounters is the slice of the gate's /v1/stats the probes read.
type gateCounters struct {
	HedgeFired   int64 `json:"hedgeFired"`
	HedgeWon     int64 `json:"hedgeWon"`
	PartialReads int64 `json:"partialReads"`
}

func (t *topo) gateStats() (gateCounters, error) {
	var c gateCounters
	body, err := get(t.gateTarget(), "/v1/stats")
	if err != nil {
		return c, err
	}
	return c, json.Unmarshal(body, &c)
}

// ------------------------------------------------------------- harness

// probeClient measures the benchmark itself: what one request costs against
// a handler that does nothing, and what recording one span costs with
// every client recording at once. The traced phase recorded one span per
// request (and, on topology, sent the sampled direct reads), so their cost
// over the phase's client time is the share tracing took.
func (rc *run) probeClient() error {
	noop := inProcess(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte("{}\n"))
	}))
	ops := make([]loadgen.Op, 10*rc.sz.probeOps)
	for i := range ops {
		ops[i] = loadgen.Op{Kind: loadgen.OpStats, Method: "GET", Path: "/v1/stats"}
	}
	rc.rep.set("bench.client_us_p50", summarize(drive(noop, ops, 1, driveOpts{}).lat[loadgen.OpStats]).P50)

	const spans = 20000
	tr := newTracer()
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < rc.procs; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < spans; i++ {
				tr.end(tr.start("client.probe", 0, tr.request()))
			}
		}()
	}
	wg.Wait()
	perSpan := time.Since(t0) / spans
	spent := perSpan*time.Duration(rc.phase.attempted) + rc.sampling
	rc.rep.set("bench.trace_overhead_frac", spent.Seconds()/(rc.phase.elapsed.Seconds()*float64(rc.procs)))
	rc.rep.note("tracing: %v per span with %d clients recording, %v of sampled direct reads, in a traced phase of %d requests and %v", perSpan, rc.procs, rc.sampling, rc.phase.attempted, rc.phase.elapsed)
	return nil
}
