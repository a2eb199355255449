package core

import (
	"testing"

	"rdfcube/internal/gen"
)

// TestPartialDimsMapOnExample asserts Algorithm 2's map_P on the running
// example: o21 partially contains o31 on refArea and sex (indices in the
// sorted global dimension order refArea < refPeriod < sex).
func TestPartialDimsMapOnExample(t *testing.T) {
	s, idx := exampleSpace(t)
	res := NewResult()
	mustCompute(t, s, AlgorithmBaseline, Options{Tasks: TaskAll}, res)

	dRefArea := dimIndex(t, s, gen.DimRefArea)
	dRefPeriod := dimIndex(t, s, gen.DimRefPeriod)
	dSex := dimIndex(t, s, gen.DimSex)

	dims := res.PartialDims[Pair{idx["o21"], idx["o31"]}]
	if len(dims) != 2 || dims[0] != dRefArea || dims[1] != dSex {
		t.Errorf("map_P(o21, o31) = %v, want [refArea sex] = [%d %d]", dims, dRefArea, dSex)
	}
	dims = res.PartialDims[Pair{idx["o31"], idx["o21"]}]
	if len(dims) != 1 || dims[0] != dSex {
		t.Errorf("map_P(o31, o21) = %v, want [sex]", dims)
	}
	// o22 → o35 exhibits containment on refPeriod and sex.
	dims = res.PartialDims[Pair{idx["o22"], idx["o35"]}]
	if len(dims) != 2 || dims[0] != dRefPeriod || dims[1] != dSex {
		t.Errorf("map_P(o22, o35) = %v, want [refPeriod sex]", dims)
	}
}

// TestPartialDimsConsistency checks, across all algorithms and random
// corpora, that every recorded dimension set matches the direct
// DimContains checks and has the degree-matching cardinality.
func TestPartialDimsConsistency(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		c := randomCorpus(seed)
		s, err := NewSpace(c)
		if err != nil {
			t.Fatal(err)
		}
		truth := NewResult()
		mustCompute(t, s, AlgorithmBaseline, Options{Tasks: TaskAll}, truth)

		for _, alg := range []Algorithm{AlgorithmBaseline, AlgorithmCubeMasking, AlgorithmParallel} {
			res := NewResult()
			if err := Compute(s, alg, Options{}, res); err != nil {
				t.Fatal(err)
			}
			if len(res.PartialDims) != len(truth.PartialDims) {
				t.Errorf("seed %d %s: map_P size %d, want %d", seed, alg,
					len(res.PartialDims), len(truth.PartialDims))
			}
			for pr, dims := range res.PartialDims {
				deg := res.PartialDegree[pr]
				if int(deg*float64(s.NumDims())+0.5) != len(dims) {
					t.Errorf("seed %d %s: pair %v: degree %v vs %d dims", seed, alg, pr, deg, len(dims))
				}
				for _, d := range dims {
					if !s.DimContains(pr.A, pr.B, d) {
						t.Errorf("seed %d %s: pair %v: dim %d recorded but not containing", seed, alg, pr, d)
					}
				}
			}
		}
	}
}

// TestCounterSkipsDimsRecording ensures the count-only sink path stays on
// the fast path (no DimsRecorder) and still produces identical counts.
func TestCounterSkipsDimsRecording(t *testing.T) {
	s, _ := exampleSpace(t)
	cnt := &Counter{}
	mustCompute(t, s, AlgorithmBaseline, Options{Tasks: TaskAll}, cnt)
	res := NewResult()
	mustCompute(t, s, AlgorithmBaseline, Options{Tasks: TaskAll}, res)
	if cnt.NPartial != len(res.PartialSet) {
		t.Errorf("counter partials %d, result %d", cnt.NPartial, len(res.PartialSet))
	}
}
