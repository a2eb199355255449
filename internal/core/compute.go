package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"

	"rdfcube/internal/obsv"
	"rdfcube/internal/qb"
)

// Algorithm names one of the relationship-computation strategies.
type Algorithm string

// Supported algorithms.
const (
	// AlgorithmBaseline is the §3.1 quadratic occurrence-matrix scan.
	AlgorithmBaseline Algorithm = "baseline"
	// AlgorithmClustering is the §3.2 cluster-then-scan method (lossy).
	AlgorithmClustering Algorithm = "clustering"
	// AlgorithmCubeMasking is the §3.3 lattice-pruned method (exact). With
	// Options.Workers > 1 the cube sweep runs on the worker pool.
	AlgorithmCubeMasking Algorithm = "cubemasking"
	// AlgorithmCubeMaskingPrefetch is cubeMasking with the children
	// pre-fetching optimization of Fig. 5(g).
	AlgorithmCubeMaskingPrefetch Algorithm = "cubemasking-prefetch"
	// AlgorithmHybrid is the §6 future-work hybrid: lattice pruning with
	// clustering applied inside oversized cubes (lossy inside those cubes).
	AlgorithmHybrid Algorithm = "hybrid"
	// AlgorithmParallel is AlgorithmCubeMasking (default CubeMaskOptions)
	// with one different default: Options.Workers == 0 means GOMAXPROCS,
	// not serial. It is the §6 future-work item — workers claim outer
	// cubes, so the emission order depends on scheduling (see
	// Options.Workers).
	AlgorithmParallel Algorithm = "parallel"
)

// Algorithms lists every supported algorithm name.
func Algorithms() []Algorithm {
	return []Algorithm{
		AlgorithmBaseline, AlgorithmClustering,
		AlgorithmCubeMasking, AlgorithmCubeMaskingPrefetch,
		AlgorithmHybrid, AlgorithmParallel,
	}
}

// AlgorithmNames renders the supported algorithm names as a comma-
// separated list — the single source of truth for CLI help strings, so
// flag documentation cannot drift from Algorithms().
func AlgorithmNames() string {
	names := make([]string, 0, len(Algorithms()))
	for _, a := range Algorithms() {
		names = append(names, string(a))
	}
	return strings.Join(names, ", ")
}

// Options bundle per-algorithm settings for Compute.
//
// Each field is consumed only by the algorithms named in its comment; the
// others ignore it, so one Options value can drive several algorithms (as
// the benchmark harness does).
type Options struct {
	// Tasks selects the relationship types; zero means TaskAll. All
	// algorithms consult it.
	Tasks Tasks
	// Clustering configures AlgorithmClustering only. (AlgorithmHybrid's
	// intra-cube clustering is configured via Hybrid.Clustering.)
	Clustering ClusteringOptions
	// CubeMask configures AlgorithmCubeMasking and
	// AlgorithmCubeMaskingPrefetch (which forces PrefetchChildren on).
	CubeMask CubeMaskOptions
	// Hybrid configures AlgorithmHybrid.
	Hybrid HybridOptions
	// Workers sets the worker-pool size, one rule per algorithm:
	//
	//   - AlgorithmBaseline, AlgorithmClustering, AlgorithmCubeMasking:
	//     zero or one runs the paper-faithful serial scan; a larger value
	//     shards the scan (row blocks, clusters, outer cubes) over that
	//     many workers. cubeMasking's complementarity-only and prefetched
	//     full-containment shortcuts are serial whatever Workers says:
	//     they compare too few cube pairs to be worth a pool.
	//   - AlgorithmParallel: as AlgorithmCubeMasking, except that zero
	//     means GOMAXPROCS.
	//   - AlgorithmCubeMaskingPrefetch, AlgorithmHybrid: always serial;
	//     Workers is ignored.
	//
	// A pooled run emits the same relationship SET as the serial run, but
	// shards stream into the sink in completion order, in bounded chunks
	// (peak tape memory is O(workers × one 2 048-event chunk)): order-free,
	// which is what every sorting consumer (Result.Sort, snapshots,
	// /v1/related) wants anyway. The sink is never called concurrently.
	// A pooled run also has the pooled cancel contract (see ComputeCtx):
	// what a canceled run leaves in the sink is a salvaged subset, not an
	// ordered prefix. A panic, in a kernel or in the sink, ends a pooled
	// run as it ends a serial one: on the caller's goroutine.
	Workers int
	// Obs, when non-nil, receives phase spans, counters and gauges from
	// the run (see obs.go for the name glossary). All algorithms consult
	// it; nil disables instrumentation entirely.
	Obs obsv.Recorder
}

func (o Options) tasks() Tasks {
	if o.Tasks == 0 {
		return TaskAll
	}
	return o.Tasks
}

// Compute runs the selected algorithm over the space, streaming
// relationships into sink. When opts.Obs is non-nil it is attached to the
// space for the duration of the run (and left attached afterwards).
// Compute is ComputeCtx with a background context: it cannot be canceled,
// so the kernels keep their unguarded fast path — no atomics, no polls,
// zero allocations on the serial scans.
func Compute(s *Space, alg Algorithm, opts Options, sink Sink) error {
	return ComputeCtx(context.Background(), s, alg, opts, sink)
}

// ComputeCtx is Compute with cooperative cancellation. The run stops at
// the next poll point (every guardPairStride ordered pairs) after ctx is
// done and returns a *CanceledError (errors.Is(err, ErrCanceled)) whose
// Cause is context.Cause(ctx); a caller that wants a deadline passes a
// context.WithTimeout. A canceled serial run leaves an exact prefix of its
// full emission stream in the sink: serial kernels emit in order and stop.
// A canceled pooled run (see Options.Workers) leaves the shards that
// completed plus the whole-event chunks in-flight shards had already
// flushed — still exactly-once, still a subset of the full run, but not
// an ordered prefix. A nil ctx behaves like context.Background().
//
// A panic is not an error: it unwinds the caller. A pooled run re-raises
// the first panic under a worker once the pool has drained, naming the
// shard and carrying the worker's stack; the sink keeps what it accepted
// before, each event once, and no shard is retried.
func ComputeCtx(ctx context.Context, s *Space, alg Algorithm, opts Options, sink Sink) error {
	if opts.Obs != nil {
		s.SetRecorder(opts.Obs)
	}
	err := dispatch(s, alg, opts, sink, newGuard(ctx))
	if err != nil && errors.Is(err, ErrCanceled) {
		s.count(CtrRunCanceled, 1)
	}
	return err
}

// dispatch maps an algorithm name to its kernel and its Workers rule.
func dispatch(s *Space, alg Algorithm, opts Options, sink Sink, g *guard) error {
	tasks := opts.tasks()
	workers := opts.Workers
	if alg == AlgorithmParallel && workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	switch alg {
	case AlgorithmBaseline:
		return baseline(s, tasks, sink, workers, g)
	case AlgorithmClustering:
		return clustering(s, tasks, sink, opts.Clustering, workers, g)
	case AlgorithmCubeMasking:
		return cubeMasking(s, tasks, sink, opts.CubeMask, workers, g)
	case AlgorithmCubeMaskingPrefetch:
		cm := opts.CubeMask
		cm.PrefetchChildren = true
		return cubeMasking(s, tasks, sink, cm, 1, g)
	case AlgorithmHybrid:
		return hybrid(s, tasks, sink, opts.Hybrid, g)
	case AlgorithmParallel:
		return cubeMasking(s, tasks, sink, CubeMaskOptions{}, workers, g)
	default:
		return fmt.Errorf("core: unknown algorithm %q (supported: %s)", alg, AlgorithmNames())
	}
}

// ComputeCorpusCtx compiles the corpus and runs ComputeCtx, collecting the
// relationship sets into a sorted Result — the convenience entry point of
// every caller that wants a queryable state rather than a stream. With
// opts.Obs set, the full phase tree is recorded: compile → (algorithm
// phases) → emit. On cancellation it returns the compiled space, the
// SORTED PARTIAL result (what the run salvaged, ready to query or
// export), and the *CanceledError — so callers can both report the abort
// and use what was computed. Any other error returns (nil, nil, err).
func ComputeCorpusCtx(ctx context.Context, c *qb.Corpus, alg Algorithm, opts Options) (*Space, *Result, error) {
	s, err := NewSpaceObs(c, opts.Obs)
	if err != nil {
		return nil, nil, err
	}
	res := NewResult()
	cerr := ComputeCtx(ctx, s, alg, opts, res)
	if cerr != nil && !errors.Is(cerr, ErrCanceled) {
		return nil, nil, cerr
	}
	endEmit := s.span(SpanEmit)
	res.Sort()
	endEmit()
	return s, res, cerr
}
