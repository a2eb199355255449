package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"rdfcube/internal/gen"
	"rdfcube/internal/obsv"
)

func obsTestSpace(t testing.TB, n int) *Space {
	t.Helper()
	c := gen.RealWorld(gen.RealWorldConfig{TotalObs: n, Seed: 1})
	s, err := NewSpace(c)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCubeMaskingPruningAccounting is the acceptance check of the pruning
// counters: over the real generator at n = 5000, pruned + compared cube
// pairs must equal the unpruned pair total #cubes², in every task mode.
func TestCubeMaskingPruningAccounting(t *testing.T) {
	s := obsTestSpace(t, 5000)
	for _, tasks := range []Tasks{TaskAll, TaskFull, TaskCompl} {
		col := obsv.NewCollector()
		s.SetRecorder(col)
		mustCompute(t, s, AlgorithmCubeMasking, Options{Tasks: tasks}, &Counter{})
		s.SetRecorder(nil)

		snap := col.Snapshot()
		nc := int64(BuildLattice(s).Len())
		considered := snap[CtrCubePairsConsidered]
		pruned := snap[CtrCubePairsPruned]
		compared := snap[CtrCubePairsCompared]
		if considered != nc*nc {
			t.Errorf("tasks %b: considered = %d, want #cubes² = %d", tasks, considered, nc*nc)
		}
		if pruned+compared != considered {
			t.Errorf("tasks %b: pruned (%d) + compared (%d) != considered (%d)",
				tasks, pruned, compared, considered)
		}
		if compared == 0 {
			t.Errorf("tasks %b: degenerate accounting: no cube pair compared", tasks)
		}
		// With the partial task active any shared candidate dimension
		// forces a comparison, so pruning may legitimately be zero; for
		// full/compl-only runs the lattice must actually prune.
		if !tasks.Has(TaskPartial) && pruned == 0 {
			t.Errorf("tasks %b: lattice pruned nothing", tasks)
		}
	}
}

// TestPrefetchPruningAccounting checks the invariant holds on the
// prefetched sweep too, and that cache hits equal compared pairs.
func TestPrefetchPruningAccounting(t *testing.T) {
	s := obsTestSpace(t, 2000)
	col := obsv.NewCollector()
	s.SetRecorder(col)
	mustCompute(t, s, AlgorithmCubeMaskingPrefetch, Options{Tasks: TaskFull}, &Counter{})
	s.SetRecorder(nil)
	snap := col.Snapshot()
	nc := int64(BuildLattice(s).Len())
	if snap[CtrCubePairsConsidered] != nc*nc {
		t.Errorf("considered = %d, want %d", snap[CtrCubePairsConsidered], nc*nc)
	}
	if snap[CtrCubePairsPruned]+snap[CtrCubePairsCompared] != snap[CtrCubePairsConsidered] {
		t.Errorf("pruned (%d) + compared (%d) != considered (%d)",
			snap[CtrCubePairsPruned], snap[CtrCubePairsCompared], snap[CtrCubePairsConsidered])
	}
	if snap[CtrPrefetchHits] != snap[CtrCubePairsCompared] {
		t.Errorf("prefetch.hits = %d, want compared = %d", snap[CtrPrefetchHits], snap[CtrCubePairsCompared])
	}
}

// TestHybridPruningAccounting pins the hybrid's emitted set and its six
// sweep counters on a corpus with oversized cubes. Every cube pair is
// considered once; an oversized diagonal pair counts as compared and is
// clustered instead of signature-tested, so candidate tests fall short of
// considered by exactly the clustered cubes.
func TestHybridPruningAccounting(t *testing.T) {
	c := gen.RealWorld(gen.RealWorldConfig{TotalObs: 1500, Seed: 7})
	s, err := NewSpace(c)
	if err != nil {
		t.Fatal(err)
	}
	col := obsv.NewCollector()
	opts := Options{Tasks: TaskFull | TaskCompl, Obs: col, Hybrid: HybridOptions{MaxCubeSize: 8}}
	opts.Hybrid.Clustering.Config.Seed = 1
	res := NewResult()
	mustCompute(t, s, AlgorithmHybrid, opts, res)

	if full, _, compl := res.Counts(); full != 821 || compl != 1 {
		t.Errorf("|S_F| = %d, |S_C| = %d, want 821 and 1", full, compl)
	}
	snap := col.Snapshot()
	for name, want := range map[string]int64{
		CtrCubePairsConsidered:  156025,
		CtrCubePairsPruned:      142341,
		CtrCubePairsCompared:    13684,
		CtrCandidateDimTests:    155992,
		CtrHybridCubesClustered: 33,
		CtrClusterPairsSkipped:  6642,
	} {
		if snap[name] != want {
			t.Errorf("%s = %d, want %d", name, snap[name], want)
		}
	}
}

// TestBaselineComparisonCount is the acceptance check of the baseline
// counter: a full baseline run performs exactly n·(n−1) ordered
// observation comparisons (each unordered pair visit resolves both
// directions), serial or pooled.
func TestBaselineComparisonCount(t *testing.T) {
	s := obsTestSpace(t, 5000)
	n := int64(s.N())
	want := n * (n - 1)

	for _, workers := range []int{1, 4} {
		col := obsv.NewCollector()
		mustCompute(t, s, AlgorithmBaseline, Options{Tasks: TaskFull, Workers: workers, Obs: col}, &Counter{})
		s.SetRecorder(nil)
		if got := col.Snapshot()[CtrObsPairsCompared]; got != want {
			t.Errorf("workers=%d: obs.pairs.compared = %d, want n(n-1) = %d", workers, got, want)
		}
	}
}

// TestEmitCountersMatchSink checks the instrumented sink counts exactly
// the relationships the sink receives, and that counts agree across
// algorithms.
func TestEmitCountersMatchSink(t *testing.T) {
	s := obsTestSpace(t, 1500)
	var ref [3]int
	for i, alg := range []Algorithm{AlgorithmBaseline, AlgorithmCubeMasking, AlgorithmParallel} {
		col := obsv.NewCollector()
		cnt := &Counter{}
		opts := Options{Obs: col}
		if alg == AlgorithmParallel {
			opts.Workers = 4
		}
		if err := Compute(s, alg, opts, cnt); err != nil {
			t.Fatal(err)
		}
		s.SetRecorder(nil)
		snap := col.Snapshot()
		if snap[CtrEmitFull] != int64(cnt.NFull) ||
			snap[CtrEmitPartial] != int64(cnt.NPartial) ||
			snap[CtrEmitCompl] != int64(cnt.NCompl) {
			t.Errorf("%s: emit counters (%d,%d,%d) != sink counts (%d,%d,%d)", alg,
				snap[CtrEmitFull], snap[CtrEmitPartial], snap[CtrEmitCompl],
				cnt.NFull, cnt.NPartial, cnt.NCompl)
		}
		if i == 0 {
			ref = [3]int{cnt.NFull, cnt.NPartial, cnt.NCompl}
		} else if got := [3]int{cnt.NFull, cnt.NPartial, cnt.NCompl}; got != ref {
			t.Errorf("%s: counts %v differ from baseline %v", alg, got, ref)
		}
	}
}

// TestPhaseTree checks the recorded span tree of a full ComputeCorpusCtx run:
// compile → lattice.build → compare → emit.
func TestPhaseTree(t *testing.T) {
	c := gen.RealWorld(gen.RealWorldConfig{TotalObs: 500, Seed: 1})
	col := obsv.NewCollector()
	_, _, err := ComputeCorpusCtx(context.Background(), c, AlgorithmCubeMasking, Options{Obs: col})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, sp := range col.Spans() {
		names = append(names, sp.Name)
	}
	joined := strings.Join(names, " ")
	for _, want := range []string{SpanCompile, SpanLatticeBuild, SpanCompare, SpanEmit} {
		if !strings.Contains(joined, want) {
			t.Errorf("phase tree %q missing %q", joined, want)
		}
	}
	// compile must come before compare, compare before emit.
	if idx(names, SpanCompile) > idx(names, SpanCompare) || idx(names, SpanCompare) > idx(names, SpanEmit) {
		t.Errorf("phase order wrong: %v", names)
	}
}

func idx(names []string, want string) int {
	for i, n := range names {
		if n == want {
			return i
		}
	}
	return -1
}

// TestIncrementalCounters checks insert instrumentation.
func TestIncrementalCounters(t *testing.T) {
	c := gen.RealWorld(gen.RealWorldConfig{TotalObs: 300, Seed: 1})
	obs := c.Observations()
	grow := gen.RealWorld(gen.RealWorldConfig{TotalObs: 320, Seed: 1}).Observations()
	s, err := NewSpace(c)
	if err != nil {
		t.Fatal(err)
	}
	col := obsv.NewCollector()
	s.SetRecorder(col)
	inc := NewIncremental(s, TaskAll)
	inserted := 0
	for _, o := range grow[len(obs):] {
		if _, err := inc.Insert(o); err != nil {
			continue // schema outside the initial space — not under test
		}
		inserted++
	}
	if inserted == 0 {
		t.Skip("no compatible growth observations")
	}
	if got := col.Snapshot()[CtrIncInserts]; got != int64(inserted) {
		t.Errorf("incremental.inserts = %d, want %d", got, inserted)
	}
}

// TestIncrementalPrunesIncomparableCubes: without the partial task an
// insert skips every cube whose signature is level-wise incomparable with
// the new observation's (every other cube, for complementarity alone),
// counts it pruned, and still leaves the sets of a batch run.
func TestIncrementalPrunesIncomparableCubes(t *testing.T) {
	c := gen.RealWorld(gen.RealWorldConfig{TotalObs: 400, Seed: 1})
	for _, tasks := range []Tasks{TaskFull | TaskCompl, TaskCompl} {
		base, tail := splitCorpus(c, len(c.Observations())-20)
		s, err := NewSpace(base)
		if err != nil {
			t.Fatal(err)
		}
		inc := NewIncremental(s, tasks)
		col := obsv.NewCollector()
		s.SetRecorder(col)
		incomparable := false
		for _, o := range tail {
			i, err := inc.Insert(o)
			if err != nil {
				t.Fatal(err)
			}
			sig := s.Signature(i)
			for _, cube := range inc.Lattice().Cubes() {
				incomparable = incomparable || !sig.LE(cube.Sig) && !cube.Sig.LE(sig)
			}
		}
		s.SetRecorder(nil)
		if !incomparable {
			t.Fatalf("degenerate input: every cube is comparable with every inserted observation")
		}
		snap := col.Snapshot()
		considered, pruned, compared := snap[CtrCubePairsConsidered], snap[CtrCubePairsPruned], snap[CtrCubePairsCompared]
		if pruned == 0 || compared == 0 || pruned+compared != considered {
			t.Errorf("tasks %03b: considered %d, pruned %d, compared %d: want pruned > 0, compared > 0 and pruned + compared = considered",
				tasks, considered, pruned, compared)
		}
		batch := NewResult()
		mustCompute(t, s, AlgorithmBaseline, Options{Tasks: tasks}, batch)
		batch.Sort()
		inc.Res.Sort()
		if !samePairs(batch.FullSet, inc.Res.FullSet) || !samePairs(batch.PartialSet, inc.Res.PartialSet) || !samePairs(batch.ComplSet, inc.Res.ComplSet) {
			f, p, cc := inc.Res.Counts()
			bf, bp, bc := batch.Counts()
			t.Errorf("tasks %03b: incremental sets (%d, %d, %d) differ from the batch baseline's (%d, %d, %d)", tasks, f, p, cc, bf, bp, bc)
		}
	}
}

// TestUnknownAlgorithm: Compute rejects a name that is not one of the six
// algorithms, and its error lists exactly the six. The sparse occurrence
// matrix is gone, so its name is as unknown as any other.
func TestUnknownAlgorithm(t *testing.T) {
	s := obsTestSpace(t, 100)
	for _, alg := range []Algorithm{"baseline-sparse", "nope"} {
		err := Compute(s, alg, Options{}, &Counter{})
		if want := fmt.Sprintf(`unknown algorithm %q (supported: baseline, clustering, cubemasking, cubemasking-prefetch, hybrid, parallel)`, alg); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Compute(%q) = %v, want an error containing %q", alg, err, want)
		}
	}
}

// TestComputeUsesCubeMaskOptions guards the fixed bug where Compute
// dropped Options.CubeMask on the floor: the prefetch flag must reach the
// algorithm (observable through the prefetch.hits counter).
func TestComputeUsesCubeMaskOptions(t *testing.T) {
	s := obsTestSpace(t, 500)
	col := obsv.NewCollector()
	opts := Options{
		Tasks:    TaskFull,
		CubeMask: CubeMaskOptions{PrefetchChildren: true},
		Obs:      col,
	}
	if err := Compute(s, AlgorithmCubeMasking, opts, &Counter{}); err != nil {
		t.Fatal(err)
	}
	s.SetRecorder(nil)
	if col.Snapshot()[CtrPrefetchHits] == 0 {
		t.Errorf("Options.CubeMask.PrefetchChildren was dropped by Compute")
	}
}

// TestNoRecorderNoWrap checks the zero-overhead contract: without a
// recorder, instrumentSink must return the sink unchanged.
func TestNoRecorderNoWrap(t *testing.T) {
	s := obsTestSpace(t, 100)
	sink := NewResult()
	if got := instrumentSink(s, sink); got != Sink(sink) {
		t.Errorf("instrumentSink without recorder must be the identity")
	}
	s.SetRecorder(obsv.NewCollector())
	if _, ok := instrumentSink(s, sink).(countingSink); !ok {
		t.Errorf("instrumentSink with a recorder must wrap the sink in a countingSink")
	}
}
