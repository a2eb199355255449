package lattice

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func sig(levels ...uint8) Signature { return Signature(levels) }

func TestSignatureRelations(t *testing.T) {
	a := sig(1, 0, 2)
	b := sig(2, 1, 2)
	if !a.LE(b) {
		t.Errorf("a ≤ b")
	}
	if b.LE(a) {
		t.Errorf("b ≰ a")
	}
	if !a.LE(a) {
		t.Errorf("≤ reflexive")
	}
	if !a.Equal(sig(1, 0, 2)) || a.Equal(b) || a.Equal(sig(1, 0)) {
		t.Errorf("Equal")
	}
}

func TestCandidateDims(t *testing.T) {
	a := sig(1, 3, 2)
	b := sig(2, 1, 2)
	cand := a.CandidateDims(b, nil)
	if len(cand) != 2 || cand[0] != 0 || cand[1] != 2 {
		t.Errorf("CandidateDims = %v", cand)
	}
	// Reuse of the destination slice.
	cand = sig(9, 9, 9).CandidateDims(b, cand)
	if len(cand) != 0 {
		t.Errorf("reused slice not truncated: %v", cand)
	}
}

func TestLatticeAddAndCubes(t *testing.T) {
	l := New(2)
	l.Add(0, sig(1, 1))
	l.Add(1, sig(1, 1))
	l.Add(2, sig(0, 1))
	if l.Len() != 2 {
		t.Fatalf("Len = %d", l.Len())
	}
	cubes := l.Cubes()
	if len(cubes) != 2 {
		t.Fatalf("Cubes = %d", len(cubes))
	}
	// Deterministic signature order: (0,1) before (1,1).
	if !cubes[0].Sig.Equal(sig(0, 1)) {
		t.Errorf("cube order: %v", cubes[0].Sig)
	}
	if len(cubes[1].Obs) != 2 {
		t.Errorf("membership: %v", cubes[1].Obs)
	}
	if got := l.Get(sig(1, 1)); got == nil || len(got.Obs) != 2 {
		t.Errorf("Get")
	}
	if l.Get(sig(9, 9)) != nil {
		t.Errorf("Get unknown must be nil")
	}
	if l.NumDims() != 2 {
		t.Errorf("NumDims")
	}
}

func TestPrefetchChildrenMatchesLE(t *testing.T) {
	l := New(2)
	id := 0
	for a := uint8(0); a < 3; a++ {
		for b := uint8(0); b < 3; b++ {
			l.Add(id, sig(a, b))
			id++
		}
	}
	if l.HasPrefetched() {
		t.Errorf("prefetched before call")
	}
	l.PrefetchChildren()
	if !l.HasPrefetched() {
		t.Errorf("not prefetched after call")
	}
	cubes := l.Cubes()
	for i, a := range cubes {
		kids := l.Children(i)
		seen := map[string]bool{}
		for _, k := range kids {
			seen[k.Sig.Key()] = true
		}
		for _, b := range cubes {
			if a.Sig.LE(b.Sig) != seen[b.Sig.Key()] {
				t.Errorf("children of %v disagree with LE at %v", a.Sig, b.Sig)
			}
		}
	}
	// The top cube (0,0) has all 9 as descendants; the bottom (2,2) one.
	if len(l.Children(0)) != 9 {
		t.Errorf("top cube children = %d", len(l.Children(0)))
	}
	if len(l.Children(8)) != 1 {
		t.Errorf("bottom cube children = %d", len(l.Children(8)))
	}
}

func TestChildrenBeforePrefetchPanics(t *testing.T) {
	l := New(1)
	l.Add(0, sig(0))
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic")
		}
	}()
	l.Children(0)
}

func TestAddInvalidatesPrefetchAndOrder(t *testing.T) {
	l := New(1)
	l.Add(0, sig(1))
	_ = l.Cubes()
	l.PrefetchChildren()
	l.Add(1, sig(0))
	if l.HasPrefetched() {
		t.Errorf("prefetch must be invalidated by a new cube")
	}
	cubes := l.Cubes()
	if len(cubes) != 2 || !cubes[0].Sig.Equal(sig(0)) {
		t.Errorf("order not refreshed: %v", cubes)
	}
}

func TestMaxCubes(t *testing.T) {
	if MaxCubes([]int{2, 1, 3}) != 3*2*4 {
		t.Errorf("MaxCubes = %d", MaxCubes([]int{2, 1, 3}))
	}
	if MaxCubes(nil) != 1 {
		t.Errorf("empty dims")
	}
}

// TestQuickLEPartialOrder checks the partial-order laws of LE on random
// signatures.
func TestQuickLEPartialOrder(t *testing.T) {
	gen := func(r *rand.Rand) Signature {
		s := make(Signature, 4)
		for i := range s {
			s[i] = uint8(r.Intn(4))
		}
		return s
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := gen(r), gen(r), gen(r)
		if !a.LE(a) {
			return false // reflexive
		}
		if a.LE(b) && b.LE(a) && !a.Equal(b) {
			return false // antisymmetric
		}
		if a.LE(b) && b.LE(c) && !a.LE(c) {
			return false // transitive
		}
		// CandidateDims covers exactly the ≤ dimensions.
		cand := a.CandidateDims(b, nil)
		n := 0
		for i := range a {
			if a[i] <= b[i] {
				n++
			}
		}
		return len(cand) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
