package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSetGetClear(t *testing.T) {
	v := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if v.Get(i) {
			t.Errorf("bit %d set in fresh vector", i)
		}
		v.Set(i)
		if !v.Get(i) {
			t.Errorf("bit %d not set after Set", i)
		}
	}
	if v.Count() != 8 {
		t.Errorf("Count = %d, want 8", v.Count())
	}
	v.Clear(64)
	if v.Get(64) || v.Count() != 7 {
		t.Errorf("Clear(64) failed: count %d", v.Count())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	v := New(10)
	for name, fn := range map[string]func(){
		"Set-neg":   func() { v.Set(-1) },
		"Set-high":  func() { v.Set(10) },
		"Get-high":  func() { v.Get(10) },
		"Clear-neg": func() { v.Clear(-1) },
		"Range-bad": func() { v.AndEqualsRange(New(10), 5, 11) },
		"Range-rev": func() { v.AndEqualsRange(New(10), 7, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestAndEqualsSubset(t *testing.T) {
	a := New(100)
	b := New(100)
	for _, i := range []int{3, 50, 99} {
		a.Set(i)
		b.Set(i)
	}
	b.Set(7)
	if !a.AndEquals(b) {
		t.Errorf("a ⊆ b must hold")
	}
	if b.AndEquals(a) {
		t.Errorf("b ⊄ a must hold")
	}
	if !a.AndEquals(a) {
		t.Errorf("reflexivity")
	}
}

func TestAndEqualsRangeMasksOutside(t *testing.T) {
	a := New(200)
	b := New(200)
	a.Set(10) // outside range, must not matter
	a.Set(100)
	b.Set(100)
	if !a.AndEqualsRange(b, 64, 128) {
		t.Errorf("restricted subset must hold")
	}
	if a.AndEquals(b) {
		t.Errorf("unrestricted subset must fail (bit 10)")
	}
	// Empty range is vacuously true.
	if !a.AndEqualsRange(b, 50, 50) {
		t.Errorf("empty range must be true")
	}
}

func TestJaccard(t *testing.T) {
	a, b := New(64), New(64)
	if a.Jaccard(b) != 1 {
		t.Errorf("empty vectors have similarity 1")
	}
	a.Set(1)
	a.Set(2)
	b.Set(2)
	b.Set(3)
	if got := a.Jaccard(b); got != 1.0/3.0 {
		t.Errorf("Jaccard = %v, want 1/3", got)
	}
	if got := a.JaccardDistance(b); got < 2.0/3.0-1e-12 || got > 2.0/3.0+1e-12 {
		t.Errorf("distance = %v, want 2/3", got)
	}
}

func TestOnesOrderAndString(t *testing.T) {
	v := New(70)
	want := []int{0, 5, 63, 64, 69}
	for _, i := range want {
		v.Set(i)
	}
	var got []int
	v.Ones(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("Ones returned %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Ones[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	s := v.String()
	if len(s) != 70 || s[0] != '1' || s[1] != '0' || s[69] != '1' {
		t.Errorf("String rendering wrong: %q", s)
	}
}

func TestClone(t *testing.T) {
	a := New(64)
	a.Set(3)
	b := a.Clone()
	b.Set(5)
	if a.Get(5) {
		t.Errorf("Clone aliases storage")
	}
	if !b.Get(3) {
		t.Errorf("Clone lost bits")
	}
	if !a.Equal(a.Clone()) {
		t.Errorf("clone must be Equal")
	}
}

// randomVec builds a deterministic pseudo-random vector for property tests.
func randomVec(rng *rand.Rand, n int) *Vector {
	v := New(n)
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 {
			v.Set(i)
		}
	}
	return v
}

// naiveSubsetRange is the reference implementation for AndEqualsRange.
func naiveSubsetRange(a, b *Vector, lo, hi int) bool {
	for i := lo; i < hi; i++ {
		if a.Get(i) && !b.Get(i) {
			return false
		}
	}
	return true
}

func TestQuickAndEqualsRangeMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64, loRaw, hiRaw uint16) bool {
		n := 300
		r := rand.New(rand.NewSource(seed))
		a, b := randomVec(r, n), randomVec(r, n)
		lo := int(loRaw) % n
		hi := lo + int(hiRaw)%(n-lo+1)
		return a.AndEqualsRange(b, lo, hi) == naiveSubsetRange(a, b, lo, hi)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestQuickCountsConsistent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomVec(r, 257), randomVec(r, 257)
		// |a∧b| + |a∨b| == |a| + |b|
		return a.AndCount(b)+a.OrCount(b) == a.Count()+b.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickJaccardProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomVec(r, 190), randomVec(r, 190)
		j1, j2 := a.Jaccard(b), b.Jaccard(a)
		if j1 != j2 {
			return false // symmetry
		}
		if j1 < 0 || j1 > 1 {
			return false // bounds
		}
		return a.Jaccard(a) == 1 // reflexivity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickSubsetAntisymmetry(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomVec(r, 100), randomVec(r, 100)
		// a⊆b ∧ b⊆a ⇔ a==b
		both := a.AndEquals(b) && b.AndEquals(a)
		return both == a.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLenMismatch(t *testing.T) {
	a, b := New(64), New(65)
	if a.AndEquals(b) || a.Equal(b) {
		t.Errorf("length mismatch must be false")
	}
}

func TestResetZeroesAllBits(t *testing.T) {
	v := New(130)
	for i := 0; i < 130; i += 7 {
		v.Set(i)
	}
	v.Reset()
	if v.Count() != 0 {
		t.Errorf("Reset left %d bits set", v.Count())
	}
	if v.Len() != 130 {
		t.Errorf("Reset changed width to %d", v.Len())
	}
}
