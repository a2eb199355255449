package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"rdfcube/internal/leakcheck"
)

// naiveResult is the reference sink of the bulk-load tests: a Result
// written event by event, the way every Compute wrote one before the
// stage. It is not a *Result, so ComputeCtx does not stage it, and the
// promoted methods are Result's own immediate appends and map writes.
type naiveResult struct{ *Result }

// sameResult compares two sorted Results field by field.
func sameResult(t *testing.T, what string, got, want *Result) {
	t.Helper()
	if !samePairs(got.FullSet, want.FullSet) || !samePairs(got.PartialSet, want.PartialSet) || !samePairs(got.ComplSet, want.ComplSet) {
		gf, gp, gc := got.Counts()
		wf, wp, wc := want.Counts()
		t.Errorf("%s: sets differ: got %d/%d/%d pairs, want %d/%d/%d", what, gf, gp, gc, wf, wp, wc)
	}
	if !reflect.DeepEqual(got.PartialDegree, want.PartialDegree) {
		t.Errorf("%s: PartialDegree differs (%d entries, want %d)", what, len(got.PartialDegree), len(want.PartialDegree))
	}
}

// bulkTestOptions makes every algorithm deterministic and sends the hybrid
// into its clustering fallback.
func bulkTestOptions(workers int) Options {
	opts := Options{Tasks: TaskAll, Workers: workers}
	opts.Clustering.Config.Seed = 7
	opts.Hybrid.MaxCubeSize = 8
	opts.Hybrid.Clustering.Config.Seed = 7
	return opts
}

// TestBulkLoadMatchesPerEventSink is the differential test of the stage:
// for every algorithm and worker count, Compute into a *Result (staged,
// committed once) leaves exactly what Compute into the per-event
// reference leaves — the same three sorted sets and the same degree for
// every partial pair.
func TestBulkLoadMatchesPerEventSink(t *testing.T) {
	leakcheck.Check(t)
	spaces := map[string]*Space{"realworld-300": obsTestSpace(t, 300)}
	for seed := int64(1); seed <= 4; seed++ {
		s, err := NewSpace(randomCorpus(seed))
		if err != nil {
			t.Fatal(err)
		}
		spaces[fmt.Sprintf("random-%d", seed)] = s
	}
	var nFull, nPartial, nCompl int
	for name, s := range spaces {
		for _, alg := range Algorithms() {
			for _, workers := range []int{0, 1, 2, 4} {
				what := fmt.Sprintf("%s %s workers=%d", name, alg, workers)
				want := naiveResult{NewResult()}
				mustCompute(t, s, alg, bulkTestOptions(workers), want)
				want.Sort()
				got := NewResult()
				mustCompute(t, s, alg, bulkTestOptions(workers), got)
				got.Sort()
				sameResult(t, what, got, want.Result)
				if len(got.PartialDims) != 0 {
					t.Errorf("%s: the run filled PartialDims (%d entries)", what, len(got.PartialDims))
				}
				f, p, c := got.Counts()
				nFull, nPartial, nCompl = nFull+f, nPartial+p, nCompl+c
			}
		}
	}
	if nFull == 0 || nPartial == 0 || nCompl == 0 {
		t.Errorf("degenerate fixtures: %d full, %d partial, %d complementary pairs compared", nFull, nPartial, nCompl)
	}
}

// TestBulkLoadKeepsExistingEntries: a Compute into a Result that already
// holds pairs appends to the sets and keeps every degree — the first
// run's and ones written directly — although commit replaces the map with
// a larger one.
func TestBulkLoadKeepsExistingEntries(t *testing.T) {
	s := obsTestSpace(t, 300)
	for _, workers := range []int{0, 2} {
		first := NewResult()
		mustCompute(t, s, AlgorithmBaseline, Options{Tasks: TaskPartial}, first)
		nPartial := len(first.PartialSet)
		if nPartial == 0 {
			t.Fatal("degenerate input: no partial pairs")
		}
		res := first
		sentinel := Pair{-1, -2}
		res.Partial(sentinel.A, sentinel.B, 0.25)

		mustCompute(t, s, AlgorithmCubeMasking, Options{Tasks: TaskAll, Workers: workers}, res)
		if len(res.PartialSet) != 2*nPartial+1 {
			t.Errorf("workers=%d: PartialSet has %d pairs, want the first run's %d, the sentinel and the second run's %d",
				workers, len(res.PartialSet), nPartial, nPartial)
		}
		if res.PartialSet[nPartial] != sentinel {
			t.Errorf("workers=%d: the second run did not append after the existing pairs", workers)
		}
		if len(res.FullSet) == 0 {
			t.Errorf("workers=%d: the second run's full set is missing", workers)
		}
		if len(res.PartialDegree) != nPartial+1 {
			t.Errorf("workers=%d: PartialDegree holds %d entries, want %d (the second run repeats the first's pairs)",
				workers, len(res.PartialDegree), nPartial+1)
		}
		if res.PartialDegree[sentinel] != 0.25 {
			t.Errorf("workers=%d: the directly written entry did not survive the commit", workers)
		}
		if len(res.PartialDims) != 0 {
			t.Errorf("workers=%d: the runs filled PartialDims (%d entries)", workers, len(res.PartialDims))
		}
	}
}

// TestBulkLoadCommitsOnErrorPaths: whatever ends the run — a pair budget
// in a serial sweep, a budget in a pooled one, a shard that panics twice —
// the Result holds what the run emitted before it ended, exactly once,
// with a degree for every partial pair.
func TestBulkLoadCommitsOnErrorPaths(t *testing.T) {
	leakcheck.Check(t)
	s := obsTestSpace(t, 400)
	full := NewResult()
	mustCompute(t, s, AlgorithmCubeMasking, Options{Tasks: TaskAll}, full)
	inFull := map[[3]int]bool{}
	for kind, ps := range [][]Pair{full.FullSet, full.PartialSet, full.ComplSet} {
		for _, p := range ps {
			inFull[[3]int{kind, p.A, p.B}] = true
		}
	}

	cases := []struct {
		name string
		opts Options
		is   func(error) bool
	}{
		{"serial budget", Options{Tasks: TaskAll, MaxPairs: 4 * guardPairStride},
			func(err error) bool { return errors.Is(err, ErrCanceled) }},
		{"pooled budget", Options{Tasks: TaskAll, Workers: 4, MaxPairs: 16 * guardPairStride},
			func(err error) bool { return errors.Is(err, ErrCanceled) }},
		{"shard panics twice", Options{Tasks: TaskAll, Workers: 4, ShardFault: func(shard int) {
			if shard == 1 {
				panic("persistent fault")
			}
		}}, func(err error) bool { var spe *ShardPanicError; return errors.As(err, &spe) }},
	}
	for _, tc := range cases {
		got := NewResult()
		err := Compute(s, AlgorithmCubeMasking, tc.opts, got)
		if !tc.is(err) {
			t.Fatalf("%s: unexpected error %v", tc.name, err)
		}
		nf, np, nc := got.Counts()
		if nf+np+nc == 0 {
			t.Errorf("%s: nothing was committed", tc.name)
		}
		if nf+np+nc >= len(inFull) {
			t.Errorf("%s: the run was not cut short (%d of %d relationships)", tc.name, nf+np+nc, len(inFull))
		}
		seen := map[[3]int]bool{}
		for kind, ps := range [][]Pair{got.FullSet, got.PartialSet, got.ComplSet} {
			for _, p := range ps {
				k := [3]int{kind, p.A, p.B}
				if !inFull[k] {
					t.Fatalf("%s: committed pair %v (set %d) is not in the full run", tc.name, p, kind)
				}
				if seen[k] {
					t.Fatalf("%s: pair %v (set %d) committed twice", tc.name, p, kind)
				}
				seen[k] = true
			}
		}
		if len(got.PartialDegree) != np {
			t.Errorf("%s: %d degrees for %d partial pairs", tc.name, len(got.PartialDegree), np)
		}
		for _, p := range got.PartialSet {
			if got.PartialDegree[p] != full.PartialDegree[p] {
				t.Fatalf("%s: pair %v committed with degree %v, want %v", tc.name, p,
					got.PartialDegree[p], full.PartialDegree[p])
			}
		}
	}

	// The serial budget's salvage is an ordered prefix of the full run.
	got := NewResult()
	if err := Compute(s, AlgorithmCubeMasking, cases[0].opts, got); !errors.Is(err, ErrCanceled) {
		t.Fatal(err)
	}
	for i, p := range got.PartialSet {
		if full.PartialSet[i] != p {
			t.Fatalf("serial budget: partial pair %d is %v, the full run's is %v", i, p, full.PartialSet[i])
		}
	}
}

// TestBulkLoadAllocations is the allocation gate of the stage: a run into
// a *Result allocates per column chunk, not per pair. What it allocates
// beyond the same run into a Counter is bounded after taking out the
// degree map itself — the runtime builds a presized map of this many
// entries out of some two thousand tables, each an allocation, and that
// number is its business.
func TestBulkLoadAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("n = 1500")
	}
	s := obsTestSpace(t, 1500)
	var nPartial, nCounted int
	for _, workers := range []int{0, 2} {
		opts := Options{Tasks: TaskAll, Workers: workers}
		intoResult := testing.AllocsPerRun(1, func() {
			res := NewResult()
			mustCompute(t, s, AlgorithmCubeMasking, opts, res)
			nPartial = len(res.PartialSet)
		})
		intoCounter := testing.AllocsPerRun(1, func() {
			cnt := &Counter{}
			mustCompute(t, s, AlgorithmCubeMasking, opts, cnt)
			nCounted = cnt.NPartial
		})
		var keep map[Pair]float64
		degreeMap := testing.AllocsPerRun(1, func() {
			keep = make(map[Pair]float64, nPartial)
		})
		_ = keep
		if nPartial < 100_000 || nCounted != nPartial {
			t.Fatalf("degenerate input: %d partial pairs in the Result, %d counted", nPartial, nCounted)
		}
		// Measured 81–139: one per 8 192-entry chunk of the three columns
		// (67 of them the partial column's), the chunk lists' growth and
		// three slices.Grow.
		if extra := intoResult - intoCounter - degreeMap; extra > 250 {
			t.Errorf("workers=%d: materialising %d partial pairs cost %.0f allocations beyond the degree map (%.0f into a Result, %.0f into a Counter, %.0f for the map), want < 250",
				workers, nPartial, extra, intoResult, intoCounter, degreeMap)
		}
	}
}

// TestSortMatchesComparisonSort: Result.Sort orders pairs by (A, B)
// exactly as the sort.Slice it replaced — on dense sets (the counting
// passes), on short, sparse and negative ones (the comparison sort), with
// repeated A values and repeated pairs throughout.
func TestSortMatchesComparisonSort(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, tc := range []struct{ n, span, offset int }{
		{0, 1, 0}, {1, 1, 0}, {40, 10, 0}, {255, 50, 0}, {256, 50, 0}, {256, 511, 0}, {256, 513, 0},
		{5000, 60, 0}, {5000, 1500, 0}, {5000, 9999, 0}, {5000, 1 << 40, 0}, {5000, 100, -50},
	} {
		ps := make([]Pair, tc.n)
		for i := range ps {
			ps[i] = Pair{tc.offset + r.Intn(tc.span), tc.offset + r.Intn(tc.span)}
		}
		want := append([]Pair(nil), ps...)
		sort.Slice(want, func(i, j int) bool {
			if want[i].A != want[j].A {
				return want[i].A < want[j].A
			}
			return want[i].B < want[j].B
		})
		res := &Result{FullSet: ps, PartialSet: append([]Pair(nil), ps...), ComplSet: append([]Pair(nil), ps...)}
		res.Sort()
		if !samePairs(res.FullSet, want) || !samePairs(res.PartialSet, want) || !samePairs(res.ComplSet, want) {
			t.Errorf("n=%d span=%d offset=%d: Sort differs from the comparison sort", tc.n, tc.span, tc.offset)
		}
	}
}
