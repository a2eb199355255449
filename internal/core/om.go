package core

import (
	"rdfcube/internal/bitvec"
	"rdfcube/internal/rdf"
)

// OccurrenceMatrix is the paper's OM (§3.1): one bit-vector row per
// observation over the concatenated code-list columns of every dimension,
// with ancestor closure. It is the input of the baseline and clustering
// algorithms.
type OccurrenceMatrix struct {
	// Space is the compiled corpus the matrix was built from.
	Space *Space
	// Rows holds one packed bit vector per observation.
	Rows []*bitvec.Vector
}

// BuildOccurrenceMatrix materializes OM for every observation of the space.
// The matrix is cached on the space and extended in place when the space
// has grown (AppendObservation), so repeated algorithm runs — the service's
// steady state, and every benchmark iteration after the first — pay zero
// allocations and no rebuild time. Rows are immutable once built, which is
// what makes sharing the cache across concurrent readers safe; the om.build
// span is recorded only when rows are actually constructed.
func BuildOccurrenceMatrix(s *Space) *OccurrenceMatrix {
	s.omMu.Lock()
	defer s.omMu.Unlock()
	if s.om == nil {
		s.om = &OccurrenceMatrix{Space: s, Rows: make([]*bitvec.Vector, 0, s.N())}
	}
	if len(s.om.Rows) == s.N() {
		return s.om
	}
	defer s.span(SpanOMBuild)()
	for i := len(s.om.Rows); i < s.N(); i++ {
		s.om.Rows = append(s.om.Rows, s.Row(i))
	}
	return s.om
}

// NumCols returns the total number of feature columns |C|.
func (om *OccurrenceMatrix) NumCols() int { return om.Space.numCols }

// Column returns the global column index of code value within dimension d,
// or -1 when the value is not in d's code list.
func (om *OccurrenceMatrix) Column(d int, value rdf.Term) int {
	s := om.Space
	r, ok := s.codeIdx[d][value]
	if !ok {
		return -1
	}
	return s.colStart[d] + int(s.col[d][r])
}

// ContainsDim applies the per-dimension conditional function sf on the
// ordered row pair (i, j) restricted to dimension d's columns:
// row_i ∧ row_j == row_i, i.e. observation i's value (with its ancestor
// closure) is a reflexive ancestor of observation j's.
func (om *OccurrenceMatrix) ContainsDim(i, j, d int) bool {
	lo, hi := om.Space.ColRange(d)
	return om.Rows[i].AndEqualsRange(om.Rows[j], lo, hi)
}
