package core

import "slices"

// Index is a materialized relationship store for online exploration — the
// paper's §1 motivation: "materialization of these relationships helps
// speed up online exploration". It answers per-observation neighborhood
// queries (what do I contain, who contains me, what complements me) in
// O(1) lookups over the precomputed sets.
type Index struct {
	space *Space

	contains    [][]int32 // contains[i]: observations i fully contains
	containedBy [][]int32 // containedBy[i]: observations fully containing i
	partials    [][]int32 // partials[i]: observations i partially contains
	complements [][]int32 // complements[i]: complementary partners of i
}

// BuildIndex computes all relationships with the given algorithm and
// materializes the adjacency lists.
func BuildIndex(s *Space, alg Algorithm, opts Options) (*Index, error) {
	res := NewResult()
	if err := Compute(s, alg, opts, res); err != nil {
		return nil, err
	}
	return NewIndex(s, res), nil
}

// NewIndex materializes an index from an already-computed result.
func NewIndex(s *Space, res *Result) *Index {
	ix := &Index{
		space:       s,
		contains:    make([][]int32, s.N()),
		containedBy: make([][]int32, s.N()),
		partials:    make([][]int32, s.N()),
		complements: make([][]int32, s.N()),
	}
	for _, p := range res.FullSet {
		ix.contains[p.A] = append(ix.contains[p.A], int32(p.B))
		ix.containedBy[p.B] = append(ix.containedBy[p.B], int32(p.A))
	}
	for _, p := range res.PartialSet {
		ix.partials[p.A] = append(ix.partials[p.A], int32(p.B))
	}
	for _, p := range res.ComplSet {
		ix.complements[p.A] = append(ix.complements[p.A], int32(p.B))
		ix.complements[p.B] = append(ix.complements[p.B], int32(p.A))
	}
	for _, lists := range [][][]int32{ix.contains, ix.containedBy, ix.partials, ix.complements} {
		for _, l := range lists {
			slices.Sort(l)
		}
	}
	return ix
}

// Space returns the indexed space.
func (ix *Index) Space() *Space { return ix.space }

// Contains returns the observations that i fully contains (its details).
func (ix *Index) Contains(i int) []int { return toInts(ix.contains[i]) }

// ContainedBy returns the observations fully containing i (its roll-ups).
func (ix *Index) ContainedBy(i int) []int { return toInts(ix.containedBy[i]) }

// PartiallyContains returns the observations i partially contains.
func (ix *Index) PartiallyContains(i int) []int { return toInts(ix.partials[i]) }

// Complements returns i's complementary partners.
func (ix *Index) Complements(i int) []int { return toInts(ix.complements[i]) }

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

func toInts(xs []int32) []int {
	out := make([]int, len(xs))
	for i, x := range xs {
		out[i] = int(x)
	}
	return out
}
