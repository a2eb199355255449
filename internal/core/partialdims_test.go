package core

import (
	"math"
	"testing"

	"rdfcube/internal/gen"
)

// TestPartialDimsMapOnExample asserts Algorithm 2's map_P, as
// Space.ContainDims derives it, on the running example: o21 partially
// contains o31 on refArea and sex (indices in the sorted global dimension
// order refArea < refPeriod < sex).
func TestPartialDimsMapOnExample(t *testing.T) {
	s, idx := exampleSpace(t)

	dRefArea := dimIndex(t, s, gen.DimRefArea)
	dRefPeriod := dimIndex(t, s, gen.DimRefPeriod)
	dSex := dimIndex(t, s, gen.DimSex)

	dims := s.ContainDims(idx["o21"], idx["o31"])
	if len(dims) != 2 || dims[0] != dRefArea || dims[1] != dSex {
		t.Errorf("map_P(o21, o31) = %v, want [refArea sex] = [%d %d]", dims, dRefArea, dSex)
	}
	dims = s.ContainDims(idx["o31"], idx["o21"])
	if len(dims) != 1 || dims[0] != dSex {
		t.Errorf("map_P(o31, o21) = %v, want [sex]", dims)
	}
	// o22 → o35 exhibits containment on refPeriod and sex.
	dims = s.ContainDims(idx["o22"], idx["o35"])
	if len(dims) != 2 || dims[0] != dRefPeriod || dims[1] != dSex {
		t.Errorf("map_P(o22, o35) = %v, want [refPeriod sex]", dims)
	}
}

// TestPartialDimsConsistency ties the derived map_P to what the kernels
// report: for every S_P pair of every algorithm, serial and pooled, on
// random corpora, ContainDims is strictly ascending, holds only dimensions
// DimContains confirms, and has exactly ContainDegree members — which is
// the degree the kernel emitted, times |P|.
func TestPartialDimsConsistency(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		s, err := NewSpace(randomCorpus(seed))
		if err != nil {
			t.Fatal(err)
		}
		p := s.NumDims()
		for _, alg := range Algorithms() {
			for _, workers := range []int{0, 2, 4} {
				res := newNaiveResult()
				mustCompute(t, s, alg, Options{Workers: workers}, res)
				if len(res.PartialSet) == 0 {
					t.Errorf("seed %d %s workers=%d: degenerate fixture, no partial pairs", seed, alg, workers)
				}
				for _, pr := range res.PartialSet {
					dims := s.ContainDims(pr.A, pr.B)
					for k, d := range dims {
						if k > 0 && dims[k-1] >= d {
							t.Fatalf("seed %d %s: pair %v: map_P %v is not strictly ascending", seed, alg, pr, dims)
						}
						if !s.DimContains(pr.A, pr.B, d) {
							t.Fatalf("seed %d %s: pair %v: dim %d listed but not containing", seed, alg, pr, d)
						}
					}
					deg := s.ContainDegree(pr.A, pr.B)
					if emitted := int(math.Round(res.degree[pr] * float64(p))); len(dims) != deg || deg != emitted {
						t.Fatalf("seed %d %s workers=%d: pair %v: |map_P| = %d, ContainDegree = %d, emitted degree·|P| = %d",
							seed, alg, workers, pr, len(dims), deg, emitted)
					}
				}
			}
		}
	}
}
