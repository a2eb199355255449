package bitvec

import (
	"math/rand"
	"testing"
)

// scalarSubset is the reference the batch kernels must agree with: the
// existing pair-at-a-time AndEqualsRange.
func scalarSubset(v, u *Vector, lo, hi int) bool { return v.AndEqualsRange(u, lo, hi) }

// randVector fills an n-bit vector with density-controlled random bits.
func randVector(rng *rand.Rand, n int, density float64) *Vector {
	v := New(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < density {
			v.Set(i)
		}
	}
	return v
}

// TestSubsetBatchExhaustiveSmall checks every batch kernel against the
// scalar reference on EVERY vector pair of small widths — all 2^w × 2^w
// combinations for w ≤ 6 — over every sub-range, so single-word boundary
// masking has no untested case.
func TestSubsetBatchExhaustiveSmall(t *testing.T) {
	for _, w := range []int{1, 2, 3, 6} {
		vecs := make([]*Vector, 1<<w)
		for p := range vecs {
			v := New(w)
			for i := 0; i < w; i++ {
				if p&(1<<i) != 0 {
					v.Set(i)
				}
			}
			vecs[p] = v
		}
		for _, v := range vecs {
			for lo := 0; lo <= w; lo++ {
				for hi := lo; hi <= w; hi++ {
					fwd := SubsetBatch(v, vecs, lo, hi)
					bfwd, brev := SubsetBatchBoth(v, vecs, lo, hi)
					if fwd != bfwd {
						t.Fatalf("w=%d [%d,%d): SubsetBatch %x != SubsetBatchBoth fwd %x", w, lo, hi, fwd, bfwd)
					}
					for k, u := range vecs {
						if got, want := fwd&(1<<k) != 0, scalarSubset(v, u, lo, hi); got != want {
							t.Fatalf("w=%d [%d,%d) k=%d: fwd=%v scalar=%v", w, lo, hi, k, got, want)
						}
						if got, want := brev&(1<<k) != 0, scalarSubset(u, v, lo, hi); got != want {
							t.Fatalf("w=%d [%d,%d) k=%d: rev=%v scalar=%v", w, lo, hi, k, got, want)
						}
					}
				}
			}
		}
	}
}

// TestSubsetBatchRandomWide: randomized wide rows across every required
// batch size K ∈ {1, 2, 3, 8, 16} (and the BatchMax lane limit), every
// tail-word width — widths straddling 64-bit boundaries — and random
// sub-ranges, against the scalar reference.
func TestSubsetBatchRandomWide(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	widths := []int{64, 65, 127, 128, 129, 191, 192, 200, 256, 300, 511, 512, 513}
	for _, n := range widths {
		for _, k := range []int{1, 2, 3, 8, 16, BatchMax} {
			v := randVector(rng, n, 0.4)
			us := make([]*Vector, k)
			for i := range us {
				switch i % 4 {
				case 0: // superset of v: fwd should hold everywhere
					us[i] = v.Clone()
					for b := 0; b < n; b++ {
						if rng.Float64() < 0.2 {
							us[i].Set(b)
						}
					}
				case 1: // subset of v: rev should hold everywhere
					us[i] = New(n)
					v.Ones(func(b int) {
						if rng.Float64() < 0.7 {
							us[i].Set(b)
						}
					})
				case 2: // equal
					us[i] = v.Clone()
				default: // unrelated
					us[i] = randVector(rng, n, 0.4)
				}
			}
			for trial := 0; trial < 16; trial++ {
				lo := rng.Intn(n + 1)
				hi := lo + rng.Intn(n-lo+1)
				fwd, rev := SubsetBatchBoth(v, us, lo, hi)
				sb := SubsetBatch(v, us, lo, hi)
				if sb != fwd {
					t.Fatalf("n=%d k=%d [%d,%d): SubsetBatch %x != fused fwd %x", n, k, lo, hi, sb, fwd)
				}
				for i, u := range us {
					if got, want := fwd&(1<<i) != 0, scalarSubset(v, u, lo, hi); got != want {
						t.Fatalf("n=%d k=%d [%d,%d) lane=%d: fwd=%v scalar=%v", n, k, lo, hi, i, got, want)
					}
					if got, want := rev&(1<<i) != 0, scalarSubset(u, v, lo, hi); got != want {
						t.Fatalf("n=%d k=%d [%d,%d) lane=%d: rev=%v scalar=%v", n, k, lo, hi, i, got, want)
					}
				}
			}
		}
	}
}

// TestSubsetBatchEdgeCases pins the degenerate inputs: empty batches,
// empty ranges, full-width ranges, and the empty-set-subset-of-anything
// convention the scalar kernel implements.
func TestSubsetBatchEdgeCases(t *testing.T) {
	v := New(130)
	v.Set(0)
	v.Set(129)
	u := New(130)

	if got := SubsetBatch(v, nil, 0, 130); got != 0 {
		t.Errorf("empty batch: got %x, want 0", got)
	}
	if fwd, rev := SubsetBatchBoth(v, []*Vector{u}, 40, 40); fwd != 1 || rev != 1 {
		t.Errorf("empty range: fwd=%x rev=%x, want 1,1 (everything contains nothing)", fwd, rev)
	}
	// u is all-zero: u ⊆ v everywhere, v ⊄ u on any range holding v's bits.
	fwd, rev := SubsetBatchBoth(v, []*Vector{u}, 0, 130)
	if fwd != 0 || rev != 1 {
		t.Errorf("zero candidate: fwd=%x rev=%x, want 0,1", fwd, rev)
	}
}

// TestSubsetBatchPanics: the preconditions fail loudly, matching the
// scalar kernels' contract.
func TestSubsetBatchPanics(t *testing.T) {
	v := New(64)
	short := New(32)
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	expectPanic("length mismatch", func() { SubsetBatch(v, []*Vector{short}, 0, 32) })
	expectPanic("range out of bounds", func() { SubsetBatch(v, []*Vector{v}, 0, 65) })
	expectPanic("inverted range", func() { SubsetBatchBoth(v, []*Vector{v}, 10, 5) })
	expectPanic("oversized batch", func() { SubsetBatch(v, make([]*Vector, BatchMax+1), 0, 64) })
}

// TestSubsetBatchZeroAlloc pins the batch path's hot-loop guarantee: a
// steady-state batched sweep performs zero heap allocations, exactly like
// the scalar subset loop the committed bench baseline gates.
func TestSubsetBatchZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	v := randVector(rng, 512, 0.3)
	us := make([]*Vector, 16)
	for i := range us {
		us[i] = randVector(rng, 512, 0.3)
	}
	var sink uint64
	allocs := testing.AllocsPerRun(100, func() {
		f, r := SubsetBatchBoth(v, us, 3, 509)
		sink += f ^ r
		sink += SubsetBatch(v, us, 0, 512)
	})
	_ = sink
	if allocs != 0 {
		t.Fatalf("batched subset kernels allocate %.1f objects/op, want 0", allocs)
	}
}
