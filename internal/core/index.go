package core

import "slices"

// Index is a materialized relationship store for online exploration — the
// paper's §1 motivation: "materialization of these relationships helps
// speed up online exploration". It answers per-observation neighborhood
// queries (what do I contain, who contains me, what do I partially
// contain and who partially contains me, what complements me) in O(1)
// lookups over the precomputed sets, and it grows: Apply folds the pairs
// an Incremental.Insert appended to its Result into the lists. The list
// accessors return the stored, sorted lists; callers must not modify them.
//
// Index carries no lock of its own; a caller that applies inserts while
// others read guards both (serve.Server's RWMutex does).
type Index struct {
	space *Space

	contains    [][]int32 // contains[i]: observations i fully contains
	containedBy [][]int32 // containedBy[i]: observations fully containing i
	partials    [][]int32 // partials[i]: observations i partially contains
	partialBy   [][]int32 // partialBy[i]: observations partially containing i
	complements [][]int32 // complements[i]: complementary partners of i
}

// BuildIndex computes all relationships with the given algorithm and
// materializes the neighbour lists.
func BuildIndex(s *Space, alg Algorithm, opts Options) (*Index, error) {
	res := NewResult()
	if err := Compute(s, alg, opts, res); err != nil {
		return nil, err
	}
	return NewIndex(s, res), nil
}

// NewIndex materializes an index from an already-computed result.
func NewIndex(s *Space, res *Result) *Index {
	ix := &Index{space: s}
	ix.Apply(res, 0, 0, 0)
	return ix
}

// Apply folds the pairs of res past the first f0 full, p0 partial and c0
// complementarity pairs into the lists, and grows the lists to cover every
// observation of the space. Only the lists of the observations it adds
// are sorted: Apply serves the two ways the state grows — from zero, and
// one Incremental.Insert at a time, whose pairs all involve the new
// observation, the largest index, so an older observation's list stays
// sorted when that observation is appended to it.
func (ix *Index) Apply(res *Result, f0, p0, c0 int) {
	n0 := len(ix.contains)
	added := make([][]int32, ix.space.N()-n0)
	ix.contains = append(ix.contains, added...)
	ix.containedBy = append(ix.containedBy, added...)
	ix.partials = append(ix.partials, added...)
	ix.partialBy = append(ix.partialBy, added...)
	ix.complements = append(ix.complements, added...)
	for _, p := range res.FullSet[f0:] {
		ix.contains[p.A] = append(ix.contains[p.A], int32(p.B))
		ix.containedBy[p.B] = append(ix.containedBy[p.B], int32(p.A))
	}
	for _, p := range res.PartialSet[p0:] {
		ix.partials[p.A] = append(ix.partials[p.A], int32(p.B))
		ix.partialBy[p.B] = append(ix.partialBy[p.B], int32(p.A))
	}
	for _, p := range res.ComplSet[c0:] {
		ix.complements[p.A] = append(ix.complements[p.A], int32(p.B))
		ix.complements[p.B] = append(ix.complements[p.B], int32(p.A))
	}
	for _, lists := range [][][]int32{ix.contains, ix.containedBy, ix.partials, ix.partialBy, ix.complements} {
		for _, l := range lists[n0:] {
			slices.Sort(l)
		}
	}
}

// Space returns the indexed space.
func (ix *Index) Space() *Space { return ix.space }

// Contains returns the observations that i fully contains (its details).
func (ix *Index) Contains(i int) []int32 { return ix.contains[i] }

// ContainedBy returns the observations fully containing i (its roll-ups).
func (ix *Index) ContainedBy(i int) []int32 { return ix.containedBy[i] }

// PartiallyContains returns the observations i partially contains.
func (ix *Index) PartiallyContains(i int) []int32 { return ix.partials[i] }

// PartiallyContainedBy returns the observations partially containing i.
func (ix *Index) PartiallyContainedBy(i int) []int32 { return ix.partialBy[i] }

// Complements returns i's complementary partners.
func (ix *Index) Complements(i int) []int32 { return ix.complements[i] }

// Degree returns the partial-containment degree for the ordered pair, or 0
// when the pair is not in S_P.
func (ix *Index) Degree(a, b int) float64 {
	if _, ok := slices.BinarySearch(ix.partials[a], int32(b)); !ok {
		return 0
	}
	return ix.space.Degree(a, b)
}

// TopLevel returns the observations contained by nobody — the skyline, read
// directly off the materialized sets ("computation of containment between
// observations provides a means to directly access skyline points").
func (ix *Index) TopLevel() []int {
	var out []int
	for i := range ix.containedBy {
		if len(ix.containedBy[i]) == 0 {
			out = append(out, i)
		}
	}
	return out
}

// hasEdge reports whether the full-containment edge a → b is materialized.
func (ix *Index) hasEdge(a, b int32) bool {
	_, ok := slices.BinarySearch(ix.contains[a], b)
	return ok
}

// equivalent reports mutual full containment: the pair carries identical
// dimension values and shares a measure, so the containment DAG has a
// 2-cycle through it. Navigation treats such observations as one node.
func (ix *Index) equivalent(a, b int32) bool {
	return ix.hasEdge(a, b) && ix.hasEdge(b, a)
}

// DrillDown returns the most specific observations directly below i: those
// contained by i with no *strictly* intermediate observation between them.
// Observations equivalent to i or to the candidate (mutual containment)
// are not intermediates.
func (ix *Index) DrillDown(i int) []int {
	detail := ix.contains[i]
	inDetail := map[int32]bool{}
	for _, d := range detail {
		inDetail[d] = true
	}
	var out []int
	for _, d := range detail {
		if ix.equivalent(int32(i), d) {
			continue // same point as i, not a detail
		}
		immediate := true
		for _, mid := range ix.containedBy[d] {
			if mid == int32(i) || !inDetail[mid] {
				continue
			}
			if ix.equivalent(mid, d) || ix.equivalent(mid, int32(i)) {
				continue
			}
			immediate = false
			break
		}
		if immediate {
			out = append(out, int(d))
		}
	}
	return out
}

// RollUp returns the least aggregated observations directly above i, with
// the same strict-intermediate semantics as DrillDown.
func (ix *Index) RollUp(i int) []int {
	parents := ix.containedBy[i]
	inParents := map[int32]bool{}
	for _, p := range parents {
		inParents[p] = true
	}
	var out []int
	for _, p := range parents {
		if ix.equivalent(int32(i), p) {
			continue
		}
		immediate := true
		for _, mid := range ix.contains[p] {
			if mid == int32(i) || !inParents[mid] {
				continue
			}
			if ix.equivalent(mid, p) || ix.equivalent(mid, int32(i)) {
				continue
			}
			immediate = false
			break
		}
		if immediate {
			out = append(out, int(p))
		}
	}
	return out
}

// Stats summarizes the index: relationship counts and degree distribution
// buckets for quick corpus profiling.
type Stats struct {
	// Observations is the indexed observation count.
	Observations int
	// FullPairs, PartialPairs and ComplPairs count the relationships.
	FullPairs, PartialPairs, ComplPairs int
	// SkylineSize is the number of top-level observations.
	SkylineSize int
}

// Stats computes summary statistics.
func (ix *Index) Stats() Stats {
	st := Stats{Observations: ix.space.N()}
	for i := range ix.contains {
		st.FullPairs += len(ix.contains[i])
		st.PartialPairs += len(ix.partials[i])
		st.ComplPairs += len(ix.complements[i])
	}
	st.ComplPairs /= 2 // stored on both endpoints
	st.SkylineSize = len(ix.TopLevel())
	return st
}
