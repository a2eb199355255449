// Benchmarks regenerating the paper's evaluation artefacts with testing.B.
// Each published table/figure has a benchmark family; cmd/cubebench runs
// the same experiments as full parameter sweeps with table output.
//
// Benchmark sizes are deliberately modest so `go test -bench=.` completes
// in minutes; the shapes of interest (algorithm ordering, prefetch gain,
// comparator blow-up) are visible at these sizes and are asserted
// qualitatively in EXPERIMENTS.md.
package rdfcube_test

import (
	"sync"
	"testing"

	"rdfcube/internal/bitvec"
	"rdfcube/internal/cluster"
	"rdfcube/internal/core"
	"rdfcube/internal/gen"
	"rdfcube/internal/qb"
	"rdfcube/internal/rdf"
	"rdfcube/internal/rules"
	"rdfcube/internal/sparql"
)

const (
	benchSeed       = 1
	benchSize       = 2000 // real-world replica size for the algorithms
	comparatorSize  = 400  // SPARQL / rules input (they blow up quadratically)
	syntheticSmall  = 2000
	syntheticMedium = 10000
)

var (
	spaceCache = map[int]*core.Space{}
	graphCache = map[int]*rdf.Graph{}
	cacheMu    sync.Mutex
)

func realWorldSpace(b *testing.B, size int) *core.Space {
	b.Helper()
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if s, ok := spaceCache[size]; ok {
		return s
	}
	c := gen.RealWorld(gen.RealWorldConfig{TotalObs: size, Seed: benchSeed})
	s, err := core.NewSpace(c)
	if err != nil {
		b.Fatal(err)
	}
	spaceCache[size] = s
	return s
}

func realWorldGraph(b *testing.B, size int) *rdf.Graph {
	b.Helper()
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if g, ok := graphCache[size]; ok {
		return g
	}
	c := gen.RealWorld(gen.RealWorldConfig{TotalObs: size, Seed: benchSeed})
	g := qb.ExportGraph(c)
	graphCache[size] = g
	return g
}

func benchCore(b *testing.B, alg core.Algorithm, tasks core.Tasks, size int) {
	s := realWorldSpace(b, size)
	opts := core.Options{Tasks: tasks}
	opts.Clustering.Config.Seed = benchSeed
	opts.Hybrid.Clustering.Config.Seed = benchSeed
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cnt := &core.Counter{}
		if err := core.Compute(s, alg, opts, cnt); err != nil {
			b.Fatal(err)
		}
	}
}

func benchSPARQL(b *testing.B, query string) {
	g := realWorldGraph(b, comparatorSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sparql.Exec(g, query); err != nil {
			b.Fatal(err)
		}
	}
}

func benchRules(b *testing.B, rel rules.Relationship) {
	c := gen.RealWorld(gen.RealWorldConfig{TotalObs: comparatorSize, Seed: benchSeed})
	prog := rules.PaperProgramFor(rel)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := qb.ExportGraph(c) // the engine mutates its graph
		b.StartTimer()
		if _, err := rules.NewEngine(g).Run(prog); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Figure 5(a): complementarity --------------------------------------

func BenchmarkFig5aComplementarityBaseline(b *testing.B) {
	benchCore(b, core.AlgorithmBaseline, core.TaskCompl, benchSize)
}

func BenchmarkFig5aComplementarityClustering(b *testing.B) {
	benchCore(b, core.AlgorithmClustering, core.TaskCompl, benchSize)
}

func BenchmarkFig5aComplementarityCubeMasking(b *testing.B) {
	benchCore(b, core.AlgorithmCubeMasking, core.TaskCompl, benchSize)
}

func BenchmarkFig5aComplementaritySPARQL(b *testing.B) {
	benchSPARQL(b, sparql.ComplementarityQuery)
}

func BenchmarkFig5aComplementarityRules(b *testing.B) {
	benchRules(b, rules.Complementarity)
}

// ---- Figure 5(b): full containment --------------------------------------

func BenchmarkFig5bFullContainmentBaseline(b *testing.B) {
	benchCore(b, core.AlgorithmBaseline, core.TaskFull, benchSize)
}

func BenchmarkFig5bFullContainmentClustering(b *testing.B) {
	benchCore(b, core.AlgorithmClustering, core.TaskFull, benchSize)
}

func BenchmarkFig5bFullContainmentCubeMasking(b *testing.B) {
	benchCore(b, core.AlgorithmCubeMasking, core.TaskFull, benchSize)
}

func BenchmarkFig5bFullContainmentSPARQL(b *testing.B) {
	benchSPARQL(b, sparql.FullContainmentQuery)
}

func BenchmarkFig5bFullContainmentRules(b *testing.B) {
	benchRules(b, rules.FullContainment)
}

// ---- Figure 5(c): partial containment -----------------------------------

func BenchmarkFig5cPartialContainmentBaseline(b *testing.B) {
	benchCore(b, core.AlgorithmBaseline, core.TaskPartial, benchSize)
}

func BenchmarkFig5cPartialContainmentClustering(b *testing.B) {
	benchCore(b, core.AlgorithmClustering, core.TaskPartial, benchSize)
}

func BenchmarkFig5cPartialContainmentCubeMasking(b *testing.B) {
	benchCore(b, core.AlgorithmCubeMasking, core.TaskPartial, benchSize)
}

func BenchmarkFig5cPartialContainmentSPARQL(b *testing.B) {
	benchSPARQL(b, sparql.PartialContainmentQuery)
}

func BenchmarkFig5cPartialContainmentRules(b *testing.B) {
	benchRules(b, rules.PartialContainment)
}

// ---- Figure 5(d): clustering methods ------------------------------------

func BenchmarkFig5dClusteringRecall(b *testing.B) {
	for _, method := range []string{"canopy", "hierarchical", "xmeans"} {
		b.Run(method, func(b *testing.B) {
			s := realWorldSpace(b, benchSize)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cnt := &core.Counter{}
				opts := core.Options{Tasks: core.TaskAll}
				opts.Clustering.Config.Method = clusterMethod(method)
				opts.Clustering.Config.Seed = benchSeed
				if err := core.Compute(s, core.AlgorithmClustering, opts, cnt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Figure 5(e): synthetic scalability ----------------------------------

func BenchmarkFig5eScalability(b *testing.B) {
	for _, size := range []int{syntheticSmall, syntheticMedium} {
		c := gen.Synthetic(gen.SyntheticConfig{N: size, Seed: benchSeed})
		s, err := core.NewSpace(c)
		if err != nil {
			b.Fatal(err)
		}
		opts := core.Options{Tasks: core.TaskFull}
		opts.Clustering.Config.Seed = benchSeed
		for _, alg := range []core.Algorithm{core.AlgorithmBaseline, core.AlgorithmCubeMasking, core.AlgorithmClustering} {
			b.Run(benchName(string(alg), size), func(b *testing.B) {
				if alg == core.AlgorithmBaseline && size > syntheticSmall {
					b.Skip("quadratic baseline measured at the small size only")
				}
				for i := 0; i < b.N; i++ {
					if err := core.Compute(s, alg, opts, &core.Counter{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// ---- Figure 5(f): lattice construction and cube count --------------------

func BenchmarkFig5fCubeRatio(b *testing.B) {
	s := realWorldSpace(b, benchSize)
	b.ReportAllocs()
	var cubes int
	for i := 0; i < b.N; i++ {
		l := core.BuildLattice(s)
		cubes = l.Len()
	}
	b.ReportMetric(float64(cubes), "cubes")
	b.ReportMetric(float64(cubes)/float64(s.N()), "cubes/obs")
}

// ---- Figure 5(g): children pre-fetching ----------------------------------

func BenchmarkFig5gPrefetchOff(b *testing.B) {
	benchCore(b, core.AlgorithmCubeMasking, core.TaskFull, benchSize)
}

func BenchmarkFig5gPrefetchOn(b *testing.B) {
	benchCore(b, core.AlgorithmCubeMaskingPrefetch, core.TaskFull, benchSize)
}

// ---- Tables 2/3: occurrence and containment matrices ----------------------

func BenchmarkTable2OccurrenceMatrix(b *testing.B) {
	s := realWorldSpace(b, benchSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.BuildOccurrenceMatrix(s)
	}
}

func BenchmarkTable3OCM(b *testing.B) {
	c := gen.PaperMatrixExample()
	s, err := core.NewSpace(c)
	if err != nil {
		b.Fatal(err)
	}
	om := core.BuildOccurrenceMatrix(s)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.ComputeOCM(om)
	}
}

// ---- Extensions (§6 future work) ------------------------------------------

func BenchmarkExtensionHybrid(b *testing.B) {
	benchCore(b, core.AlgorithmHybrid, core.TaskFull, benchSize)
}

func BenchmarkExtensionParallel(b *testing.B) {
	benchCore(b, core.AlgorithmParallel, core.TaskFull, benchSize)
}

func BenchmarkExtensionIncrementalInsert(b *testing.B) {
	base := gen.RealWorld(gen.RealWorldConfig{TotalObs: 1000, Seed: benchSeed})
	s, err := core.NewSpace(base)
	if err != nil {
		b.Fatal(err)
	}
	inc := core.NewIncremental(s, core.TaskAll)
	extra := gen.RealWorld(gen.RealWorldConfig{TotalObs: 1000, Seed: benchSeed + 1}).Observations()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inc.Insert(extra[i%len(extra)]); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Substrate micro-benchmarks -------------------------------------------

func BenchmarkSubstrateBitvecAndEqualsRange(b *testing.B) {
	v := bitvec.New(2048)
	u := bitvec.New(2048)
	for i := 0; i < 2048; i += 3 {
		v.Set(i)
		u.Set(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.AndEqualsRange(u, 512, 1536)
	}
}

func BenchmarkSubstrateGraphMatch(b *testing.B) {
	g := realWorldGraph(b, comparatorSize)
	obsType := rdf.NewIRI(qb.ObservationClass)
	typeT := rdf.NewIRI(rdf.RDFType)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		g.Match(rdf.Term{}, typeT, obsType, func(rdf.Triple) bool { n++; return true })
	}
}

func benchName(alg string, size int) string {
	switch size {
	case syntheticSmall:
		return alg + "-2k"
	default:
		return alg + "-10k"
	}
}

func clusterMethod(s string) cluster.Method {
	switch s {
	case "canopy":
		return cluster.Canopy
	case "hierarchical":
		return cluster.Hierarchical
	default:
		return cluster.XMeans
	}
}

// ---- Parallel extension: worker-pool variants vs serial (§6) --------------
//
// The three kernels serial and on four workers, TaskAll into a Counter,
// with allocs/op reported so `go test -bench=Parallel -benchmem` shows the
// steady-state allocation profile of the pooled tapes and scratch rows
// (core's TestKernelAllocations puts ceilings on the same runs).

func benchCoreWorkers(b *testing.B, alg core.Algorithm, size, workers int) {
	s := realWorldSpace(b, size)
	opts := core.Options{Tasks: core.TaskAll, Workers: workers}
	opts.Clustering.Config.Seed = benchSeed
	cnt := &core.Counter{}
	if err := core.Compute(s, alg, opts, cnt); err != nil { // warm pools + OM cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		*cnt = core.Counter{}
		if err := core.Compute(s, alg, opts, cnt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParallelBaselineSerial(b *testing.B) {
	benchCoreWorkers(b, core.AlgorithmBaseline, benchSize, 0)
}

func BenchmarkParallelBaselineWorkers4(b *testing.B) {
	benchCoreWorkers(b, core.AlgorithmBaseline, benchSize, 4)
}

func BenchmarkParallelClusteringSerial(b *testing.B) {
	benchCoreWorkers(b, core.AlgorithmClustering, benchSize, 0)
}

func BenchmarkParallelClusteringWorkers4(b *testing.B) {
	benchCoreWorkers(b, core.AlgorithmClustering, benchSize, 4)
}

func BenchmarkParallelCubeMaskingSerial(b *testing.B) {
	benchCoreWorkers(b, core.AlgorithmCubeMasking, benchSize, 0)
}

func BenchmarkParallelCubeMaskingWorkers4(b *testing.B) {
	benchCoreWorkers(b, core.AlgorithmParallel, benchSize, 4)
}

// BenchmarkSubsetTestLoop is the §3.1 inner loop in isolation: the
// per-dimension CM_i bit-AND subset test over real occurrence-matrix
// rows. It must run allocation-free (TestSubsetTestLoopZeroAlloc is the
// gate; the benchmark's bitvec.subset_ns_per_row times the batch form).
func BenchmarkSubsetTestLoop(b *testing.B) {
	s := realWorldSpace(b, benchSize)
	om := core.BuildOccurrenceMatrix(s)
	rows := om.Rows
	if len(rows) > 256 {
		rows = rows[:256]
	}
	width := om.NumCols()
	b.ReportAllocs()
	b.ResetTimer()
	sink := false
	for i := 0; i < b.N; i++ {
		for x := range rows {
			for y := range rows {
				sink = rows[x].AndEqualsRange(rows[y], 0, width)
			}
		}
	}
	_ = sink
	b.ReportMetric(float64(len(rows)*len(rows)), "tests/op")
}

// TestSubsetTestLoopZeroAlloc is the gate on the hot path's invariant:
// the subset test allocates nothing, on every `go test`.
func TestSubsetTestLoopZeroAlloc(t *testing.T) {
	c := gen.RealWorld(gen.RealWorldConfig{TotalObs: 400, Seed: benchSeed})
	s, err := core.NewSpace(c)
	if err != nil {
		t.Fatal(err)
	}
	om := core.BuildOccurrenceMatrix(s)
	rows := om.Rows[:64]
	width := om.NumCols()
	sink := false
	allocs := testing.AllocsPerRun(10, func() {
		for x := range rows {
			for y := range rows {
				sink = rows[x].AndEqualsRange(rows[y], 0, width)
			}
		}
	})
	_ = sink
	if allocs != 0 {
		t.Fatalf("subset-test loop allocated %v times per run, must be 0", allocs)
	}
}
