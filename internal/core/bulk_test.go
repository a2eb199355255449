package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"rdfcube/internal/leakcheck"
)

// naiveResult is the one test-side recorder of what a run emits: a Result
// beside the degree each Partial call carried — Result itself keeps none.
type naiveResult struct {
	*Result
	degree map[Pair]float64
}

func newNaiveResult() naiveResult { return naiveResult{NewResult(), map[Pair]float64{}} }

// Partial implements Sink.
func (n naiveResult) Partial(a, b int, degree float64) {
	n.Result.Partial(a, b, degree)
	n.degree[Pair{a, b}] = degree
}

// checkNoDegreeTable asserts that whatever wrote into res left the two
// retired maps nil.
func checkNoDegreeTable(t *testing.T, what string, res *Result) {
	t.Helper()
	if res.PartialDegree != nil || res.PartialDims != nil {
		t.Errorf("%s: filled PartialDegree (%d entries) or PartialDims (%d entries); both must stay nil",
			what, len(res.PartialDegree), len(res.PartialDims))
	}
}

// sameResult compares two sorted Results set by set; got, the one a run
// under test wrote, must hold no degree table.
func sameResult(t *testing.T, what string, got, want *Result) {
	t.Helper()
	if !samePairs(got.FullSet, want.FullSet) || !samePairs(got.PartialSet, want.PartialSet) || !samePairs(got.ComplSet, want.ComplSet) {
		gf, gp, gc := got.Counts()
		wf, wp, wc := want.Counts()
		t.Errorf("%s: sets differ: got %d/%d/%d pairs, want %d/%d/%d", what, gf, gp, gc, wf, wp, wc)
	}
	checkNoDegreeTable(t, what, got)
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

// TestBulkLoadMatchesPerEventSink: for every algorithm and worker count,
// Compute into a *Result leaves exactly what Compute into the per-event
// recorder leaves — the same three sorted sets — and the degree the
// recorder saw emitted for each partial pair is the one the Space derives
// for a reader of the Result.
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
				want := newNaiveResult()
				mustCompute(t, s, alg, bulkTestOptions(workers), want)
				want.Sort()
				got := NewResult()
				mustCompute(t, s, alg, bulkTestOptions(workers), got)
				got.Sort()
				sameResult(t, what, got, want.Result)
				checkDerivedDegrees(t, what, s, want)
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
// holds pairs — a first run's and one written directly — appends after
// them, and fills no degree table however often the Result is reused.
func TestBulkLoadKeepsExistingEntries(t *testing.T) {
	s := obsTestSpace(t, 300)
	for _, workers := range []int{0, 2} {
		res := NewResult()
		mustCompute(t, s, AlgorithmBaseline, Options{Tasks: TaskPartial}, res)
		nPartial := len(res.PartialSet)
		if nPartial == 0 {
			t.Fatal("degenerate input: no partial pairs")
		}
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
		checkNoDegreeTable(t, fmt.Sprintf("workers=%d, reused Result", workers), res)
	}
}

// TestBulkLoadCommitsOnErrorPaths: whatever ends the run — a context
// canceled in a serial sweep or in a pooled one, a sink that panics in a
// pooled run — the Result holds what the run emitted before it ended,
// exactly once, and a serial run's salvage is an ordered prefix of the
// full run.
func TestBulkLoadCommitsOnErrorPaths(t *testing.T) {
	leakcheck.Check(t)
	s := obsTestSpace(t, 400)
	full := NewResult()
	mustCompute(t, s, AlgorithmCubeMasking, Options{Tasks: TaskAll}, full)
	inFull := relationships(full)

	canceled := func(v any, err error) bool { return v == nil && errors.Is(err, ErrCanceled) }
	// Each case starts a run into res: its context, the options and the
	// sink that end it.
	cases := []struct {
		name  string
		start func(res *Result) (context.Context, Options, Sink, context.CancelFunc)
		ended func(panicked any, err error) bool
	}{
		{"serial cancel", func(res *Result) (context.Context, Options, Sink, context.CancelFunc) {
			// The serial sweep flushes its counters per compared cube pair
			// and per outer cube: cancel after 200 flushes.
			ctx, rec, stop := newCancelAfter(200)
			return ctx, Options{Tasks: TaskAll, Obs: rec}, res, stop
		}, canceled},
		{"pooled cancel", func(res *Result) (context.Context, Options, Sink, context.CancelFunc) {
			ctx, rec, stop := newCancelAfter(200)
			return ctx, Options{Tasks: TaskAll, Workers: 4, Obs: rec}, res, stop
		}, canceled},
		{"the sink panics in a pooled run", func(res *Result) (context.Context, Options, Sink, context.CancelFunc) {
			return context.Background(), Options{Tasks: TaskAll, Workers: 4}, &panicAtCall{inner: res, k: 3000}, func() {}
		}, func(v any, err error) bool { return strings.Contains(fmt.Sprint(v), "sink fault at call 3000") }},
	}
	run := func(start func(*Result) (context.Context, Options, Sink, context.CancelFunc)) (*Result, any, error) {
		got := NewResult()
		ctx, opts, sink, stop := start(got)
		defer stop()
		v, err := computeRecovering(ctx, s, AlgorithmCubeMasking, opts, sink)
		s.SetRecorder(nil)
		return got, v, err
	}
	var serial *Result
	for _, tc := range cases {
		got, v, err := run(tc.start)
		if serial == nil {
			serial = got
		}
		if !tc.ended(v, err) {
			t.Fatalf("%s: unexpected end: panic %v, error %v", tc.name, v, err)
		}
		nf, np, nc := got.Counts()
		if nf+np+nc == 0 {
			t.Errorf("%s: nothing was committed", tc.name)
		}
		if nf+np+nc >= len(inFull) {
			t.Errorf("%s: the run was not cut short (%d of %d relationships)", tc.name, nf+np+nc, len(inFull))
		}
		checkSalvage(t, tc.name, got, inFull)
		checkNoDegreeTable(t, tc.name, got)
	}

	// The serial cancel's salvage is an ordered prefix of the full run, and
	// canceling at the same hook again cuts at the same pair.
	got, v, err := run(cases[0].start)
	if !canceled(v, err) {
		t.Fatalf("serial cancel: panic %v, error %v", v, err)
	}
	for i, p := range got.PartialSet {
		if full.PartialSet[i] != p {
			t.Fatalf("serial cancel: partial pair %d is %v, the full run's is %v", i, p, full.PartialSet[i])
		}
	}
	if !slices.Equal(got.FullSet, serial.FullSet) || !slices.Equal(got.PartialSet, serial.PartialSet) || !slices.Equal(got.ComplSet, serial.ComplSet) {
		t.Errorf("serial cancel: two runs canceled at the same hook salvaged different results")
	}
}

// TestBulkLoadAllocations is the allocation gate of a Result: a run into a
// *Result allocates per growth of its three sets, not per pair, so what it
// allocates beyond the same run into a Counter is bounded.
func TestBulkLoadAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("n = 1500")
	}
	s := obsTestSpace(t, 1500)
	var nPartial, nCounted int
	for _, workers := range []int{0, 2} {
		if raceEnabled && workers > 1 {
			continue // the two runs would regrow a different number of dropped tapes
		}
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
		if nPartial < 100_000 || nCounted != nPartial {
			t.Fatalf("degenerate input: %d partial pairs in the Result, %d counted", nPartial, nCounted)
		}
		// Measured 53–92 at -cpu 1, 2 and 4: one per growth of the three
		// sets, each append-grown from empty to its final length.
		if extra := intoResult - intoCounter; extra > 150 {
			t.Errorf("workers=%d: materialising %d partial pairs cost %.0f allocations (%.0f into a Result, %.0f into a Counter), want ≤ 150",
				workers, nPartial, extra, intoResult, intoCounter)
		}
	}
}

// kernelAllocs runs one TaskAll Compute into a Counter (clustering seed 1)
// and returns the heap objects and bytes it allocated, the Counter
// included. One unmeasured run first fills the pools and the space's
// occurrence-matrix cache; a GC can still drain a pool between that run and
// the measured one and charge the refill to it, so the best of up to five
// attempts counts, re-warming before each (TestGuardNilFastPath's rule),
// and the attempts stop at the first one within both ceilings.
func kernelAllocs(t *testing.T, s *Space, alg Algorithm, workers int, maxObjects, maxBytes uint64) (objects, bytes uint64) {
	t.Helper()
	opts := Options{Tasks: TaskAll, Workers: workers}
	opts.Clustering.Config.Seed = 1
	objects, bytes = ^uint64(0), ^uint64(0)
	for attempt := 0; attempt < 5 && (objects > maxObjects || bytes > maxBytes); attempt++ {
		mustCompute(t, s, alg, opts, &Counter{})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		mustCompute(t, s, alg, opts, &Counter{})
		runtime.ReadMemStats(&after)
		objects = min(objects, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return objects, bytes
}

// TestKernelAllocations is the allocation gate of the three kernels: what
// one run allocates is bounded in observations and cubes, never in pairs.
// At n = 2 400 there are 5.76 M ordered pairs, 90 000 batches of 64 and
// 239 000 cube pairs, so one allocation per pair, per batch or per cube
// pair is at least 13 times over every ceiling below.
//
// Serial ceilings (measured 1, 236 / 337 and 1 585 / 4 614 at n = 600 /
// 2 400 with 250 / 489 cubes, the same at -cpu 1, 2 and 4):
//   - baseline: 1, the Counter. The scan's index and batch rows come from
//     baselineScratchPool.
//   - clustering: n/4 + 256. x-means runs on a 10 % sample, and each of
//     its rounds allocates an assignment, the member lists and one
//     majority-vote count array per centroid; then come one assignment of
//     all n rows and Members' per-cluster lists with their doublings.
//     Rounds and clusters are capped (MaxIter, k ≤ √(n/2)), so this grows
//     far slower than n. The per-cluster scans are the baseline's and add
//     nothing.
//   - cubeMasking: 2·n + 4·cubes + 64. Each run hashes the observations
//     into a new lattice: a signature key per observation and at most one
//     doubling of a cube's member list per observation (2·n); a Cube, its
//     signature copy and its share of the map's buckets and of the sorted
//     key list per cube (4·cubes); the map, the lists' headers and the
//     scratch (64). The sweep itself adds nothing.
//
// A pooled run (Workers 4; not under the race detector, where sync.Pool
// drops the tapes) adds some dozens of allocations for goroutines,
// channels, merge state and tape growth: measured 30–33 / 31–57,
// 260–263 / 361–366 and 1 617–1 621 / 4 646–4 651 at -cpu 1, 2 and 4. The
// ceiling is the serial reading + 5 % + 600. Its bytes stay under 1 MiB a
// run (measured ≤ 678 KB, clustering at n = 2 400, of which 675 KB are the
// serial assignment's): a shard's events go through a tape of 2 048-event
// (48 KiB) chunks that is flushed into the sink chunk by chunk and then
// reused, so a pooled run holds O(workers) chunks, not its 1.4 M events;
// with tapes dropped instead of reused on release, cubeMasking at
// n = 2 400 allocates 39 MB.
func TestKernelAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("n = 2400")
	}
	for _, n := range []int{600, 2400} {
		s := obsTestSpace(t, n)
		cubes := BuildLattice(s).Len()
		for _, tc := range []struct {
			alg     Algorithm
			ceiling int
		}{
			{AlgorithmBaseline, 1},
			{AlgorithmClustering, n/4 + 256},
			{AlgorithmCubeMasking, 2*n + 4*cubes + 64},
		} {
			serial, _ := kernelAllocs(t, s, tc.alg, 0, uint64(tc.ceiling), ^uint64(0))
			if serial > uint64(tc.ceiling) {
				t.Errorf("n=%d (%d cubes) %s serial: %d allocations a run, want ≤ %d", n, cubes, tc.alg, serial, tc.ceiling)
			}
			if raceEnabled {
				continue
			}
			ceiling := serial + serial/20 + 600
			pooled, bytes := kernelAllocs(t, s, tc.alg, 4, ceiling, 1<<20)
			if pooled > ceiling {
				t.Errorf("n=%d (%d cubes) %s on 4 workers: %d allocations a run, want ≤ %d (serial %d + 5 %% + 600)", n, cubes, tc.alg, pooled, ceiling, serial)
			}
			if bytes > 1<<20 {
				t.Errorf("n=%d (%d cubes) %s on 4 workers: %d bytes allocated a run, want ≤ 1 MiB", n, cubes, tc.alg, bytes)
			}
		}
	}
}

// TestResultHeapPerPair is the memory guard of the derived degree: a
// computed Result is three pair columns, so what it keeps live is the
// 16-byte Pair per stored pair and next to nothing else — no table keyed
// by pair (the degree map this replaces cost 51 bytes a pair on top).
func TestResultHeapPerPair(t *testing.T) {
	if testing.Short() {
		t.Skip("n = 1500")
	}
	s := obsTestSpace(t, 1500)
	BuildOccurrenceMatrix(s) // cached on the space by the first run; not the Result's memory
	liveHeap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := liveHeap()
	res := NewResult()
	mustCompute(t, s, AlgorithmCubeMasking, Options{Tasks: TaskAll}, res)
	after := liveHeap()
	f, p, c := res.Counts()
	if p < 100_000 {
		t.Fatalf("degenerate input: %d partial pairs", p)
	}
	perPair := (float64(after) - float64(before)) / float64(f+p+c)
	t.Logf("%d stored pairs, live heap grew by %.1f B per pair", f+p+c, perPair)
	if perPair > 20 {
		t.Errorf("a computed Result keeps %.1f B of heap per stored pair (%d pairs), want ≤ 20 (a Pair is 16)", perPair, f+p+c)
	}
	runtime.KeepAlive(res)
	runtime.KeepAlive(s)
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
