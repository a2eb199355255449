// Package bitvec provides fixed-width packed bit vectors. They are the rows
// of the paper's occurrence matrix OM (§3.1): one bit per code-list value,
// set when the value — or one of its hierarchical descendants — appears in
// an observation's dimension instantiation.
//
// The hot operation is the per-dimension containment test
// sf(o_a, o_b) = [a AND b == a] restricted to a column range, which
// AndEqualsRange answers with word-level masking and no allocation.
package bitvec

import (
	"math/bits"
	"strings"
)

const wordBits = 64

// Vector is a fixed-length packed bit vector.
type Vector struct {
	words []uint64
	n     int
}

// New returns an all-zero vector of n bits.
func New(n int) *Vector {
	return &Vector{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len returns the number of bits in the vector.
func (v *Vector) Len() int { return v.n }

// Set sets bit i to 1. It panics when i is out of range.
func (v *Vector) Set(i int) {
	if i < 0 || i >= v.n {
		panic("bitvec: Set out of range")
	}
	v.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clear sets bit i to 0. It panics when i is out of range.
func (v *Vector) Clear(i int) {
	if i < 0 || i >= v.n {
		panic("bitvec: Clear out of range")
	}
	v.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Get reports whether bit i is set. It panics when i is out of range.
func (v *Vector) Get(i int) bool {
	if i < 0 || i >= v.n {
		panic("bitvec: Get out of range")
	}
	return v.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Count returns the number of set bits (population count).
func (v *Vector) Count() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Reset zeroes every bit, keeping the width and backing storage. It is the
// recycling primitive of Pool: a reset vector is indistinguishable from a
// freshly allocated one.
func (v *Vector) Reset() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// Clone returns a deep copy of v.
func (v *Vector) Clone() *Vector {
	w := make([]uint64, len(v.words))
	copy(w, v.words)
	return &Vector{words: w, n: v.n}
}

// Equal reports whether v and u have identical length and bits.
func (v *Vector) Equal(u *Vector) bool {
	if v.n != u.n {
		return false
	}
	for i, w := range v.words {
		if w != u.words[i] {
			return false
		}
	}
	return true
}

// AndEquals reports whether v AND u == v, i.e. every set bit of v is also
// set in u (v ⊆ u). With the ancestor-closure encoding of the occurrence
// matrix, row_a ⊆ row_b on a dimension's columns exactly when the value of
// o_a is a (reflexive) hierarchical ancestor of the value of o_b.
func (v *Vector) AndEquals(u *Vector) bool {
	if v.n != u.n {
		return false
	}
	for i, w := range v.words {
		if w&u.words[i] != w {
			return false
		}
	}
	return true
}

// AndEqualsRange reports whether v AND u == v restricted to the half-open
// bit range [lo, hi). It is the per-dimension containment test over a
// sub-matrix OM_i without materializing the sub-vectors.
func (v *Vector) AndEqualsRange(u *Vector, lo, hi int) bool {
	if lo < 0 || hi > v.n || lo > hi || v.n != u.n {
		panic("bitvec: AndEqualsRange out of range")
	}
	if lo == hi {
		return true
	}
	first, last := lo/wordBits, (hi-1)/wordBits
	for i := first; i <= last; i++ {
		mask := ^uint64(0)
		if i == first {
			mask &= ^uint64(0) << (uint(lo) % wordBits)
		}
		if i == last {
			r := uint(hi) % wordBits
			if r != 0 {
				mask &= (1 << r) - 1
			}
		}
		a := v.words[i] & mask
		if a&u.words[i] != a {
			return false
		}
	}
	return true
}

// AndCount returns |v AND u|, the size of the bit-set intersection.
func (v *Vector) AndCount(u *Vector) int {
	c := 0
	for i, w := range v.words {
		c += bits.OnesCount64(w & u.words[i])
	}
	return c
}

// OrCount returns |v OR u|, the size of the bit-set union.
func (v *Vector) OrCount(u *Vector) int {
	c := 0
	for i, w := range v.words {
		c += bits.OnesCount64(w | u.words[i])
	}
	return c
}

// Jaccard returns the Jaccard similarity |v∩u| / |v∪u| in [0, 1].
// Two empty vectors have similarity 1. This is the paper's similarity
// metric for the binary feature space of the clustering method (§4).
func (v *Vector) Jaccard(u *Vector) float64 {
	or := v.OrCount(u)
	if or == 0 {
		return 1
	}
	return float64(v.AndCount(u)) / float64(or)
}

// JaccardDistance returns 1 − Jaccard(v, u).
func (v *Vector) JaccardDistance(u *Vector) float64 { return 1 - v.Jaccard(u) }

// Ones invokes fn for every set bit index in increasing order.
func (v *Vector) Ones(fn func(i int)) {
	for wi, w := range v.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*wordBits + b)
			w &= w - 1
		}
	}
}

// String renders the vector as a 0/1 string, most significant bit last
// (index order). Intended for tests and debugging.
func (v *Vector) String() string {
	var b strings.Builder
	b.Grow(v.n)
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}
