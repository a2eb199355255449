// Package lattice implements the multidimensional level lattice of the
// paper's cubeMasking algorithm (§3.3). A cube is the set of observations
// whose dimension values sit at one particular combination of hierarchy
// levels; the lattice is the partially ordered set of those combinations.
//
// Observation comparisons are pruned at the schema level: a cube can only
// (fully) contain another when its level is less than or equal on every
// dimension, and two observations can only be complementary inside the same
// cube.
package lattice

import (
	"sort"
)

// Signature is a cube coordinate: the per-dimension hierarchy level of an
// observation's values, over the global dimension order. Dimensions absent
// from an observation's schema map to level 0 (the code-list root).
type Signature []uint8

// Key returns the signature as a compact string usable as a map key.
func (s Signature) Key() string { return string(s) }

// Equal reports whether s and t are identical coordinates.
func (s Signature) Equal(t Signature) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// LE reports whether s is level-wise ≤ t on every dimension — the necessary
// schema-level condition for observations in cube s to fully contain
// observations in cube t.
func (s Signature) LE(t Signature) bool {
	for i := range s {
		if s[i] > t[i] {
			return false
		}
	}
	return true
}

// CandidateDims appends to dst the dimensions on which members of cube s
// may contain members of cube t (those with s[i] ≤ t[i]); on all other
// dimensions containment is impossible at the schema level.
func (s Signature) CandidateDims(t Signature, dst []int) []int {
	dst = dst[:0]
	for i := range s {
		if s[i] <= t[i] {
			dst = append(dst, i)
		}
	}
	return dst
}

// Cube is one lattice node: a signature plus the indices of the
// observations hashed to it.
type Cube struct {
	// Sig is the cube's level coordinate.
	Sig Signature
	// Obs are the indices (into the caller's observation slice) of the
	// cube's members, in insertion order.
	Obs []int
}

// Lattice indexes observations by cube signature.
type Lattice struct {
	nDims  int
	cubes  map[string]*Cube
	order  []*Cube // sorted by signature key; rebuilt lazily
	sorted bool

	children [][]*Cube // prefetched descendant lists, aligned with order
}

// New returns an empty lattice over nDims dimensions.
func New(nDims int) *Lattice {
	return &Lattice{nDims: nDims, cubes: map[string]*Cube{}}
}

// NumDims returns the number of dimensions of the lattice coordinates.
func (l *Lattice) NumDims() int { return l.nDims }

// Add hashes observation obsIdx into the cube at sig, creating the cube on
// first use (Algorithm 4, steps i–ii).
func (l *Lattice) Add(obsIdx int, sig Signature) *Cube {
	key := sig.Key()
	c, ok := l.cubes[key]
	if !ok {
		c = &Cube{Sig: append(Signature{}, sig...)}
		l.cubes[key] = c
		l.sorted = false
		l.children = nil
	}
	c.Obs = append(c.Obs, obsIdx)
	return c
}

// Get returns the cube at sig, or nil.
func (l *Lattice) Get(sig Signature) *Cube { return l.cubes[sig.Key()] }

// Len returns the number of non-empty cubes.
func (l *Lattice) Len() int { return len(l.cubes) }

// Cubes returns the non-empty cubes in deterministic (signature) order.
// The slice is shared; callers must not modify it.
func (l *Lattice) Cubes() []*Cube {
	if !l.sorted {
		l.order = l.order[:0]
		keys := make([]string, 0, len(l.cubes))
		for k := range l.cubes {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			l.order = append(l.order, l.cubes[k])
		}
		l.sorted = true
	}
	return l.order
}

// PrefetchChildren materializes, for every cube, the list of cubes it can
// fully contain (level-wise ≤ on all dimensions, including itself). This is
// the paper's children pre-fetching optimization (Fig. 5(g)): the
// full-containment sweep then walks the cached lists instead of re-testing
// every cube pair.
func (l *Lattice) PrefetchChildren() {
	cubes := l.Cubes()
	l.children = make([][]*Cube, len(cubes))
	for i, a := range cubes {
		for _, b := range cubes {
			if a.Sig.LE(b.Sig) {
				l.children[i] = append(l.children[i], b)
			}
		}
	}
}

// Children returns the prefetched descendant list of the i-th cube (in
// Cubes() order). It panics when PrefetchChildren has not been called.
func (l *Lattice) Children(i int) []*Cube {
	if l.children == nil {
		panic("lattice: Children before PrefetchChildren")
	}
	return l.children[i]
}

// HasPrefetched reports whether descendant lists are materialized.
func (l *Lattice) HasPrefetched() bool { return l.children != nil }
