package serve

import (
	"slices"

	"rdfcube/internal/core"
)

// adjacency is the inverted per-observation view of a core.Result: for
// every observation, who it contains, who contains it, who it partially
// contains (both directions) and who complements it. It is what turns the
// paper's batch sets S_F/S_P/S_C into O(1) fan-out answers for
// /v1/related, and — unlike core.Index — it is growable, so a live insert
// applies its relationship delta without rebuilding.
//
// adjacency carries no lock of its own; the owning Server's RWMutex
// guards every access.
type adjacency struct {
	contains    [][]int32 // contains[i]: observations i fully contains
	containedBy [][]int32 // containedBy[i]: observations fully containing i
	partials    [][]int32 // partials[i]: observations i partially contains
	partialBy   [][]int32 // partialBy[i]: observations partially containing i
	complements [][]int32 // complements[i]: complementary partners of i
}

// newAdjacency inverts res over n observations.
func newAdjacency(n int, res *core.Result) *adjacency {
	a := &adjacency{
		contains:    make([][]int32, n),
		containedBy: make([][]int32, n),
		partials:    make([][]int32, n),
		partialBy:   make([][]int32, n),
		complements: make([][]int32, n),
	}
	for _, p := range res.FullSet {
		a.addFull(p)
	}
	for _, p := range res.PartialSet {
		a.addPartial(p)
	}
	for _, p := range res.ComplSet {
		a.addCompl(p)
	}
	a.sortAll()
	return a
}

// grow extends the lists to cover n observations.
func (a *adjacency) grow(n int) {
	for len(a.contains) < n {
		a.contains = append(a.contains, nil)
		a.containedBy = append(a.containedBy, nil)
		a.partials = append(a.partials, nil)
		a.partialBy = append(a.partialBy, nil)
		a.complements = append(a.complements, nil)
	}
}

func (a *adjacency) addFull(p core.Pair) {
	a.contains[p.A] = append(a.contains[p.A], int32(p.B))
	a.containedBy[p.B] = append(a.containedBy[p.B], int32(p.A))
}

func (a *adjacency) addPartial(p core.Pair) {
	a.partials[p.A] = append(a.partials[p.A], int32(p.B))
	a.partialBy[p.B] = append(a.partialBy[p.B], int32(p.A))
}

func (a *adjacency) addCompl(p core.Pair) {
	a.complements[p.A] = append(a.complements[p.A], int32(p.B))
	a.complements[p.B] = append(a.complements[p.B], int32(p.A))
}

func (a *adjacency) sortAll() {
	for _, lists := range [][][]int32{a.contains, a.containedBy, a.partials, a.partialBy, a.complements} {
		for _, l := range lists {
			slices.Sort(l)
		}
	}
}

// applyDelta folds the relationships discovered by one insert (the tail of
// the result sets past the recorded lengths) into the adjacency. Existing
// partner lists stay sorted because the inserted observation's index is the
// largest; only the new observation's own lists need a sort.
func (a *adjacency) applyDelta(res *core.Result, idx, f0, p0, c0 int) {
	a.grow(idx + 1)
	for _, p := range res.FullSet[f0:] {
		a.addFull(p)
	}
	for _, p := range res.PartialSet[p0:] {
		a.addPartial(p)
	}
	for _, p := range res.ComplSet[c0:] {
		a.addCompl(p)
	}
	slices.Sort(a.contains[idx])
	slices.Sort(a.containedBy[idx])
	slices.Sort(a.partials[idx])
	slices.Sort(a.partialBy[idx])
	slices.Sort(a.complements[idx])
}
