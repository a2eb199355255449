package core

import "rdfcube/internal/obsv"

// Observability. The algorithms consult an optional obsv.Recorder attached
// to the Space (via Options.Obs or SetRecorder). The hot loops batch their
// increments in local integers and flush per outer iteration, so with no
// recorder attached the only cost is a nil check per flush point — the
// instrumentation is invisible when Options.Obs == nil.
//
// Counter names. All counters are monotonic within one run:
//
//   - CtrObsPairsCompared: ordered observation-pair comparisons actually
//     performed. The baseline resolves both directions per unordered-pair
//     visit, so a full baseline run reports exactly n·(n−1).
//   - CtrCubePairsConsidered / Pruned / Compared: ordered cube pairs seen
//     by the lattice sweep, discarded at the schema level, and handed to
//     the member-comparison loop. Pruned + Compared = Considered always —
//     the pruned ratio is the paper's Fig. 5 cubeMasking speedup argument.
//   - CtrCandidateDimTests: cube-signature candidate-dimension tests.
//   - CtrDimTests: dimensions compared on code rows, by sweepRow —
//     cubeMasking, hybrid and Insert. A visit that resolves both
//     directions of a pair makes two interval tests a dimension and
//     counts it once.
//   - CtrBitAndTests: word-parallel bit-AND subset tests on packed
//     occurrence-matrix rows — the baseline and clustering's per-cluster
//     scans, nothing else.
//   - CtrPrefetchHits: cube pairs served from the prefetched child lists
//     (Fig. 5(g)).
//   - CtrEmitFull / Partial / Compl: relationships emitted into the sink.
//   - CtrClusterPairsSkipped: ordered observation pairs never compared
//     because the pair straddles two clusters — the recall trade-off of
//     Fig. 5(d), counted instead of guessed.
//   - CtrHybridCubesClustered: oversized cubes the hybrid handed to the
//     intra-cube clustering fallback.
//   - CtrIncInserts: incremental insertions applied.
//   - CtrParallelCubes: outer cubes processed by the worker pool; the
//     per-worker split is reported as parallel.worker.<id>.cubes.
//   - CtrParallelRows: outer occurrence-matrix rows processed by the
//     pooled baseline's row-block shards; per-worker throughput is
//     parallel.worker.<id>.rows.
//   - CtrParallelClusters: clusters scanned by the pooled clustering
//     run; per-worker throughput is parallel.worker.<id>.clusters.
//   - CtrRunCanceled: runs that ended in cooperative cancellation (a
//     canceled or expired context).
const (
	CtrObsPairsCompared     = "obs.pairs.compared"
	CtrCubePairsConsidered  = "cubes.pairs.considered"
	CtrCubePairsPruned      = "cubes.pairs.pruned"
	CtrCubePairsCompared    = "cubes.pairs.compared"
	CtrCandidateDimTests    = "lattice.candidate.tests"
	CtrDimTests             = "dim.tests"
	CtrBitAndTests          = "bitand.tests"
	CtrPrefetchHits         = "prefetch.hits"
	CtrEmitFull             = "emit.full"
	CtrEmitPartial          = "emit.partial"
	CtrEmitCompl            = "emit.compl"
	CtrClusterPairsSkipped  = "cluster.pairs.skipped"
	CtrHybridCubesClustered = "hybrid.cubes.clustered"
	CtrIncInserts           = "incremental.inserts"
	CtrParallelCubes        = "parallel.cubes"
	CtrParallelRows         = "parallel.rows"
	CtrParallelClusters     = "parallel.clusters"
	CtrRunCanceled          = "run.canceled"
)

// Span (phase) names, forming the run's phase tree: compile (with om.build
// / lattice.build sub-phases where applicable) → compare → emit.
const (
	SpanCompile      = "compile"
	SpanOMBuild      = "om.build"
	SpanLatticeBuild = "lattice.build"
	SpanCluster      = "cluster.assign"
	SpanCompare      = "compare"
	SpanEmit         = "emit"
)

// Gauge names.
const (
	GaugeObservations = "space.observations"
	GaugeDimensions   = "space.dimensions"
	GaugeColumns      = "space.columns"
	GaugeCubes        = "lattice.cubes"
	GaugeClusters     = "cluster.clusters"
	GaugeWorkers      = "parallel.workers"
)

// SetRecorder attaches an instrumentation recorder to the space; every
// subsequent algorithm run over the space reports into it. A nil recorder
// detaches. Attach before a run, not during one: algorithms read the
// recorder concurrently from worker goroutines.
func (s *Space) SetRecorder(r obsv.Recorder) { s.rec = r }

// Recorder returns the attached recorder, or nil.
func (s *Space) Recorder() obsv.Recorder { return s.rec }

// count flushes a batched counter increment; no-op without a recorder.
func (s *Space) count(name string, delta int64) {
	if s.rec != nil && delta != 0 {
		s.rec.Count(name, delta)
	}
}

// gauge sets a gauge; no-op without a recorder.
func (s *Space) gauge(name string, v float64) {
	if s.rec != nil {
		s.rec.Gauge(name, v)
	}
}

var nopEnd = func() {}

// span opens a phase span; the returned closer is nopEnd without a
// recorder.
func (s *Space) span(name string) func() {
	if s.rec == nil {
		return nopEnd
	}
	return s.rec.Start(name)
}

// countingSink wraps a Sink, counting emissions per relationship type.
type countingSink struct {
	sink Sink
	rec  obsv.Recorder
}

// Full implements Sink.
func (c countingSink) Full(a, b int) {
	c.rec.Count(CtrEmitFull, 1)
	c.sink.Full(a, b)
}

// Partial implements Sink.
func (c countingSink) Partial(a, b int, degree float64) {
	c.rec.Count(CtrEmitPartial, 1)
	c.sink.Partial(a, b, degree)
}

// Compl implements Sink.
func (c countingSink) Compl(a, b int) {
	c.rec.Count(CtrEmitCompl, 1)
	c.sink.Compl(a, b)
}

// instrumentSink wraps sink with emission counting when the space has a
// recorder; otherwise it returns sink unchanged.
func instrumentSink(s *Space, sink Sink) Sink {
	if s.rec == nil {
		return sink
	}
	return countingSink{sink: sink, rec: s.rec}
}
