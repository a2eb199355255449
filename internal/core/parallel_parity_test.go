package core

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"rdfcube/internal/gen"
	"rdfcube/internal/leakcheck"
	"rdfcube/internal/obsv"
)

// eventSink serializes every emission — kind, pair, degree, recorded
// dimensions — into one byte stream in arrival order. Two algorithm runs
// whose streams compare byte-equal emitted the same relationships in the
// same order with the same metadata — what the serial cancel-prefix
// contract is stated in.
type eventSink struct{ buf []byte }

func (e *eventSink) rec(kind byte, a, b int, extra ...byte) {
	e.buf = append(e.buf, kind,
		byte(a), byte(a>>8), byte(a>>16),
		byte(b), byte(b>>8), byte(b>>16))
	e.buf = append(e.buf, extra...)
}

func (e *eventSink) Full(a, b int)  { e.rec('F', a, b) }
func (e *eventSink) Compl(a, b int) { e.rec('C', a, b) }
func (e *eventSink) Partial(a, b int, degree float64) {
	bits := math.Float64bits(degree)
	e.rec('P', a, b,
		byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24),
		byte(bits>>32), byte(bits>>40), byte(bits>>48), byte(bits>>56))
}

// records splits the stream into one string per emission record; ok is
// false when the stream is not a whole number of well-formed records.
func (e *eventSink) records() (out []string, ok bool) {
	for i := 0; i < len(e.buf); {
		var n int
		switch e.buf[i] {
		case 'F', 'C':
			n = 7
		case 'P':
			n = 15
		default:
			return nil, false
		}
		if i+n > len(e.buf) {
			return nil, false
		}
		out = append(out, string(e.buf[i:i+n]))
		i += n
	}
	return out, true
}

// equalAsSets reports whether two streams carry the same emission records
// regardless of order — the oracle for pooled runs, whose shards land in
// completion order. Every record embeds its own pair (and metadata), so
// multiset equality over records is exactly sorted-set equality of the
// emitted relationships.
func (e *eventSink) equalAsSets(other *eventSink) bool {
	a, okA := e.records()
	b, okB := other.records()
	if !okA || !okB || len(a) != len(b) {
		return false
	}
	sort.Strings(a)
	sort.Strings(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// serialOptions returns opts pinned to a run that is serial on every
// machine: Workers 1, never 0 (which means GOMAXPROCS for
// AlgorithmParallel). Tests take their reference runs from it.
func serialOptions(opts Options) Options {
	opts.Workers = 1
	return opts
}

// forEachGOMAXPROCS runs f under GOMAXPROCS 1, 2 and 4 and restores the
// setting, so a 1-CPU runner exercises the multi-P schedules a bigger
// machine would (and the other way round).
func forEachGOMAXPROCS(t *testing.T, f func(t *testing.T)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		t.Run(fmt.Sprintf("procs=%d", procs), f)
	}
}

// TestParityDirectEmitSetEquivalence: pooled runs deliver the same
// relationship sets and degrees as serial — the sorted-set
// equivalence oracle — for every worker count (0 included: GOMAXPROCS for
// AlgorithmParallel, serial for the others), even though shard order is
// not preserved. Run under -race this exercises the completion-order
// merge.
func TestParityDirectEmitSetEquivalence(t *testing.T) {
	leakcheck.Check(t)
	c := gen.RealWorld(gen.RealWorldConfig{TotalObs: 400, Seed: 3})
	s, err := NewSpace(c)
	if err != nil {
		t.Fatal(err)
	}
	forEachGOMAXPROCS(t, func(t *testing.T) {
		for _, alg := range []Algorithm{AlgorithmBaseline, AlgorithmClustering, AlgorithmParallel} {
			opts := Options{Tasks: TaskAll}
			opts.Clustering.Config.Seed = 7
			want := newNaiveResult()
			mustCompute(t, s, alg, serialOptions(opts), want)
			want.Sort()
			for _, workers := range []int{0, 1, 2, 8} {
				opts.Workers = workers
				got := newNaiveResult()
				mustCompute(t, s, alg, opts, got)
				got.Sort()
				if !reflect.DeepEqual(got.FullSet, want.FullSet) ||
					!reflect.DeepEqual(got.PartialSet, want.PartialSet) ||
					!reflect.DeepEqual(got.ComplSet, want.ComplSet) {
					t.Errorf("%s workers=%d: pooled sets differ from serial", alg, workers)
				}
				if !reflect.DeepEqual(got.degree, want.degree) {
					t.Errorf("%s workers=%d: pooled degrees differ from serial", alg, workers)
				}
			}
			if len(want.degree) == 0 {
				t.Errorf("%s: degenerate input: no partial pairs", alg)
			}
		}
	})
}

// TestParityComputeHonorsWorkers guards the fixed bug where
// Options.Workers was silently ignored for baseline and clustering (and,
// until the bulk-load PR, for cubeMasking): with Workers > 1 the pool must
// actually engage (observable via the parallel.workers gauge and the
// per-shard counters), and the result must match the serial run.
func TestParityComputeHonorsWorkers(t *testing.T) {
	leakcheck.Check(t)
	c := gen.RealWorld(gen.RealWorldConfig{TotalObs: 600, Seed: 5})
	s, err := NewSpace(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{AlgorithmBaseline, AlgorithmClustering, AlgorithmCubeMasking} {
		serial := NewResult()
		opts := Options{Tasks: TaskAll}
		opts.Clustering.Config.Seed = 7
		mustCompute(t, s, alg, serialOptions(opts), serial)
		serial.Sort()

		col := obsv.NewCollector()
		opts.Workers = 4
		opts.Obs = col
		par := NewResult()
		if err := Compute(s, alg, opts, par); err != nil {
			t.Fatal(err)
		}
		s.SetRecorder(nil)
		par.Sort()
		if !reflect.DeepEqual(serial.FullSet, par.FullSet) ||
			!reflect.DeepEqual(serial.PartialSet, par.PartialSet) ||
			!reflect.DeepEqual(serial.ComplSet, par.ComplSet) {
			t.Errorf("%s: Workers=4 changed the result", alg)
		}
		snap := col.Snapshot()
		var shardCtr string
		switch alg {
		case AlgorithmBaseline:
			shardCtr = CtrParallelRows
		case AlgorithmClustering:
			shardCtr = CtrParallelClusters
		case AlgorithmCubeMasking:
			shardCtr = CtrParallelCubes
		}
		if snap[shardCtr] == 0 {
			t.Errorf("%s: Workers=4 did not engage the pool (%s = 0)", alg, shardCtr)
		}
	}
}
