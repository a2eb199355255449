package core

import (
	"fmt"

	"rdfcube/internal/qb"
	"rdfcube/internal/rdf"
)

// RegisterDataset extends a compiled space with a new, EMPTY dataset —
// the schema-change primitive live rebalancing needs: a migration
// target must accept a dataset it has never seen before it can replay
// the source's observations into it.
//
// The dimension universe is fixed at compile time (the occurrence-
// matrix column layout and every cached signature depend on it), so the
// new schema may only use dimensions already in the space. The measure
// universe CAN grow: measures are a per-observation bitmask, so
// admitting a new measure costs one recompute of every observation's
// mask under the re-sorted bit assignment — O(n), paid only on the rare
// registration, never on a query.
//
// The sorted-measure invariant matters beyond this package: snapshot
// decoding validates that the persisted global measure list equals
// Corpus.AllMeasures() of the decoded corpus, so Measures is kept equal
// to the sorted union exactly as NewSpace would have computed it.
//
// Callers must hold whatever lock excludes queries and inserts (the
// serving layer's write lock): the mask swap is not atomic. On error
// the space is unchanged.
func (s *Space) RegisterDataset(ds *qb.Dataset) error {
	if len(ds.Observations) != 0 {
		return fmt.Errorf("core: register dataset %s: dataset must be empty (has %d observations)", ds.URI.Value, len(ds.Observations))
	}
	for _, d := range s.Corpus.Datasets {
		if d.URI == ds.URI {
			return fmt.Errorf("core: register dataset %s: already present", ds.URI.Value)
		}
	}
	for _, dim := range ds.Schema.Dimensions {
		if !hasTerm(s.Dims, dim) {
			return fmt.Errorf("core: register dataset %s: dimension %s not in the space (the dimension universe is fixed at compile)", ds.URI.Value, dim.Value)
		}
	}

	merged := mergeSortedTerms(s.Measures, ds.Schema.Measures)
	if len(merged) > MaxMeasures {
		return fmt.Errorf("core: register dataset %s: %d measures exceed the %d-measure limit", ds.URI.Value, len(merged), MaxMeasures)
	}
	measureBit := measureBits(merged)
	// Recompute every observation's mask under the new bit assignment.
	// The relationship sets are untouched: SharesMeasure is a set
	// intersection, invariant under bit renumbering.
	mmask := make([]uint64, len(s.Obs))
	for i, o := range s.Obs {
		var mask uint64
		for _, m := range o.Dataset.Schema.Measures {
			mask |= measureBit[m]
		}
		mmask[i] = mask
	}

	s.Corpus.AddDataset(ds)
	s.Measures = merged
	s.measureBit = measureBit
	s.mmask = mmask
	return nil
}

// hasTerm reports membership in a sorted term slice.
func hasTerm(ts []rdf.Term, t rdf.Term) bool {
	for _, x := range ts {
		if x == t {
			return true
		}
	}
	return false
}

// mergeSortedTerms returns the sorted union of a sorted slice and an
// arbitrary-order addition, matching Corpus.AllMeasures ordering.
func mergeSortedTerms(sorted []rdf.Term, add []rdf.Term) []rdf.Term {
	out := append([]rdf.Term(nil), sorted...)
	for _, t := range add {
		if !hasTerm(out, t) {
			out = append(out, t)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Compare(out[j-1]) < 0; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
