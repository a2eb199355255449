// Package core implements the paper's contribution: computation of full
// containment, partial containment and complementarity relationships
// between RDF Data Cube observations (Definitions 3–4), with three
// interchangeable algorithms — baseline (§3.1), clustering (§3.2) and
// cubeMasking (§3.3) — plus the incremental, hybrid and parallel extensions
// the paper lists as future work.
//
// # Canonical semantics
//
// All algorithms in this package compute the same relations, over the
// global dimension set P (absent dimensions take the code-list root, the
// paper's c_root convention):
//
//   - Cont_full(a, b)   ⇔ M_a ∩ M_b ≠ ∅ and, for every dimension,
//     h_a ≻ h_b (reflexive ancestry).
//   - Cont_partial(a,b) ⇔ M_a ∩ M_b ≠ ∅ and the number of dimensions with
//     h_a ≻ h_b is strictly between 0 and |P| (the OCM degree is in (0,1)),
//     exactly as derived from the OCM in the paper's Algorithm 2.
//   - Compl(a, b)       ⇔ h_a = h_b on every dimension (mutual full
//     dimension-containment, Algorithm 2's S_C criterion).
//
// The paper's §3.1 prints the per-dimension test as "a ∧ b = b"; its own
// worked example (Table 3(a)) requires "a ∧ b = a", which is what this
// package implements. See DESIGN.md for the full erratum note.
package core

import (
	"fmt"
	"sync"

	"rdfcube/internal/bitvec"
	"rdfcube/internal/hierarchy"
	"rdfcube/internal/lattice"
	"rdfcube/internal/obsv"
	"rdfcube/internal/qb"
	"rdfcube/internal/rdf"
)

// MaxMeasures is the maximum number of distinct measure properties a Space
// supports (measure sets are packed into one machine word).
const MaxMeasures = 64

// Space is the compiled form of a corpus: observations flattened into a
// single deterministic order, dimension values dictionary-encoded per
// dimension, measures packed into bitmasks, and the occurrence-matrix
// column layout fixed. All algorithms run against a Space.
type Space struct {
	// Corpus is the source corpus.
	Corpus *qb.Corpus
	// Obs are all observations, flattened in dataset order.
	Obs []*qb.Observation
	// Dims is the global sorted dimension set P.
	Dims []rdf.Term
	// Lists are the code lists aligned with Dims.
	Lists []*hierarchy.CodeList
	// Measures is the global sorted measure set M.
	Measures []rdf.Term

	// Codes are numbered per dimension in depth-first preorder (the root
	// is 0, children in CodeList.Children order), so the subtree of rank
	// r is the rank interval [r, end[d][r]) and ancestry is an interval
	// test. Every per-code table is indexed by rank.
	vals   [][]int32 // vals[i][d]: rank of obs i's code on dimension d
	end    [][]int32 // end[d][r]: one past the last rank under r
	col    [][]int32 // col[d][r]: index of r's code in Lists[d].Codes()
	parent [][]int32 // parent[d][r]: rank of r's parent, -1 for the root
	levels [][]uint8 // levels[d][r]: hierarchy level of rank r
	mmask  []uint64  // mmask[i]: measure-set bitmask of obs i

	codeIdx    []map[rdf.Term]int32 // codeIdx[d][code]: code's rank on dimension d
	measureBit map[rdf.Term]uint64  // measureBit[m]: m's bit in a measure mask

	colStart []int // occurrence-matrix column offset per dimension
	numCols  int

	omMu sync.Mutex        // guards om
	om   *OccurrenceMatrix // lazily built, extended on append (see om.go)

	rec obsv.Recorder // optional instrumentation hook (see obs.go)
}

// NewSpace compiles a corpus. It fails when a dimension lacks a code list,
// an observation value is outside its code list, or there are more than
// MaxMeasures measure properties.
func NewSpace(c *qb.Corpus) (*Space, error) { return NewSpaceObs(c, nil) }

// NewSpaceObs compiles a corpus with an instrumentation recorder attached:
// the compile pass runs under a "compile" span and the space dimensions
// are reported as gauges. The recorder stays attached to the returned
// space, so subsequent algorithm runs report into it too.
func NewSpaceObs(c *qb.Corpus, rec obsv.Recorder) (*Space, error) {
	s := &Space{
		Corpus:   c,
		Obs:      c.Observations(),
		Dims:     c.AllDimensions(),
		Measures: c.AllMeasures(),
		rec:      rec,
	}
	endCompile := s.span(SpanCompile)
	defer endCompile()
	if len(s.Measures) > MaxMeasures {
		return nil, fmt.Errorf("core: %d measures exceed the %d-measure limit", len(s.Measures), MaxMeasures)
	}
	s.measureBit = measureBits(s.Measures)

	s.Lists = make([]*hierarchy.CodeList, len(s.Dims))
	s.codeIdx = make([]map[rdf.Term]int32, len(s.Dims))
	s.end = make([][]int32, len(s.Dims))
	s.col = make([][]int32, len(s.Dims))
	s.parent = make([][]int32, len(s.Dims))
	s.levels = make([][]uint8, len(s.Dims))
	s.colStart = make([]int, len(s.Dims)+1)
	for d, dim := range s.Dims {
		cl := c.Hierarchies.Get(dim)
		if cl == nil {
			return nil, fmt.Errorf("core: dimension %s has no code list", dim)
		}
		if cl.Depth() > 255 {
			return nil, fmt.Errorf("core: dimension %s deeper than 255 levels", dim)
		}
		s.Lists[d] = cl
		codes := cl.Codes()
		idx := make(map[rdf.Term]int32, len(codes))
		end := make([]int32, len(codes))
		par := make([]int32, 0, len(codes))
		lev := make([]uint8, 0, len(codes))
		var visit func(code rdf.Term, up int32, l uint8)
		visit = func(code rdf.Term, up int32, l uint8) {
			r := int32(len(par))
			idx[code] = r
			par = append(par, up)
			lev = append(lev, l)
			for _, kid := range cl.Children(code) {
				visit(kid, r, l+1)
			}
			end[r] = int32(len(par))
		}
		visit(cl.Root, -1, 0)
		col := make([]int32, len(codes))
		for i, code := range codes {
			col[idx[code]] = int32(i)
		}
		s.codeIdx[d] = idx
		s.end[d] = end
		s.col[d] = col
		s.parent[d] = par
		s.levels[d] = lev
		s.colStart[d+1] = s.colStart[d] + len(codes)
	}
	s.numCols = s.colStart[len(s.Dims)]

	s.vals = make([][]int32, len(s.Obs))
	s.mmask = make([]uint64, len(s.Obs))
	// Backing array in one allocation.
	flat := make([]int32, len(s.Obs)*len(s.Dims))
	for i, o := range s.Obs {
		row := flat[i*len(s.Dims) : (i+1)*len(s.Dims)]
		mask, err := s.compileRow(o, row)
		if err != nil {
			return nil, err
		}
		s.vals[i], s.mmask[i] = row, mask
	}
	s.gauge(GaugeObservations, float64(len(s.Obs)))
	s.gauge(GaugeDimensions, float64(len(s.Dims)))
	s.gauge(GaugeColumns, float64(s.numCols))
	return s, nil
}

// measureBits assigns each measure of a sorted measure set its mask bit.
func measureBits(measures []rdf.Term) map[rdf.Term]uint64 {
	bits := make(map[rdf.Term]uint64, len(measures))
	for i, m := range measures {
		bits[m] = 1 << uint(i)
	}
	return bits
}

// compileRow resolves o against the space's fixed feature space: it fills
// row with o's code rank per dimension (the root, rank 0, for an absent
// one) and returns o's measure mask, without mutating the space.
func (s *Space) compileRow(o *qb.Observation, row []int32) (uint64, error) {
	for d, dim := range s.Dims {
		v := o.Value(dim)
		if v.IsZero() {
			row[d] = 0
			continue
		}
		ci, ok := s.codeIdx[d][v]
		if !ok {
			return 0, fmt.Errorf("core: observation %s: value %s not in code list of %s", o.URI, v, dim)
		}
		row[d] = ci
	}
	var mask uint64
	for _, m := range o.Dataset.Schema.Measures {
		bit, ok := s.measureBit[m]
		if !ok {
			return 0, fmt.Errorf("core: observation %s: measure %s not in the space", o.URI, m)
		}
		mask |= bit
	}
	return mask, nil
}

// N returns the number of observations.
func (s *Space) N() int { return len(s.Obs) }

// NumDims returns |P|, the number of global dimensions.
func (s *Space) NumDims() int { return len(s.Dims) }

// NumCols returns the number of occurrence-matrix columns (total codes).
func (s *Space) NumCols() int { return s.numCols }

// ColRange returns the half-open occurrence-matrix column range of
// dimension d — the boundaries of sub-matrix OM_d.
func (s *Space) ColRange(d int) (lo, hi int) { return s.colStart[d], s.colStart[d+1] }

// ValueIndex returns the rank of observation i's code on dimension d: equal
// ranks are equal codes.
func (s *Space) ValueIndex(i, d int) int32 { return s.vals[i][d] }

// Value returns the code term of observation i on dimension d.
func (s *Space) Value(i, d int) rdf.Term { return s.Lists[d].Codes()[s.col[d][s.vals[i][d]]] }

// Level returns the hierarchy level of observation i's value on dimension d.
func (s *Space) Level(i, d int) int { return int(s.levels[d][s.vals[i][d]]) }

// MeasureMask returns the packed measure set of observation i.
func (s *Space) MeasureMask(i int) uint64 { return s.mmask[i] }

// SharesMeasure reports condition (3) of Definition 4: M_i ∩ M_j ≠ ∅.
func (s *Space) SharesMeasure(i, j int) bool { return s.mmask[i]&s.mmask[j] != 0 }

// IsAncestorIdx reports reflexive ancestry a ≻ b between code ranks of
// dimension d: b lies in a's preorder interval [a, end[d][a]). One unsigned
// comparison tests both bounds, since b < a wraps to a large value.
func (s *Space) IsAncestorIdx(d int, a, b int32) bool {
	return uint32(b-a) < uint32(s.end[d][a]-a)
}

// DimContains reports whether observation i's value contains (reflexive
// ancestry) observation j's value on dimension d.
func (s *Space) DimContains(i, j, d int) bool {
	return s.IsAncestorIdx(d, s.vals[i][d], s.vals[j][d])
}

// ContainDegree returns the number of dimensions on which i's value
// contains j's — the unnormalized OCM cell for the ordered pair (i, j).
func (s *Space) ContainDegree(i, j int) int {
	vi, vj := s.vals[i], s.vals[j]
	n := 0
	for d, a := range vi {
		if s.IsAncestorIdx(d, a, vj[d]) {
			n++
		}
	}
	return n
}

// ContainDegrees fills deg[k] with the containment degree between
// observation i and observation js[k], in one direction: ContainDegree(i,
// js[k]) when iContains, else ContainDegree(js[k], i). deg must be at
// least as long as js. It answers one row against a list: row i, and when
// i is the container the width of each of its subtree intervals, are read
// once for the whole list instead of once per pair.
func (s *Space) ContainDegrees(i int, js []int32, iContains bool, deg []int32) {
	vi := s.vals[i]
	// Each vj is resliced to len(vi) so the inner loops index it without
	// bounds checks.
	if !iContains {
		for k, j := range js {
			vj := s.vals[j][:len(vi)]
			n := int32(0)
			for d, b := range vi {
				if a := vj[d]; uint32(b-a) < uint32(s.end[d][a]-a) {
					n++
				}
			}
			deg[k] = n
		}
		return
	}
	var buf [64]uint32 // the widths stay on the stack up to 64 dimensions
	w := buf[:]
	if len(vi) > len(buf) {
		w = make([]uint32, len(vi))
	}
	w = w[:len(vi)]
	for d, a := range vi {
		w[d] = uint32(s.end[d][a] - a)
	}
	for k, j := range js {
		vj := s.vals[j][:len(vi)]
		n := int32(0)
		for d, a := range vi {
			if uint32(vj[d]-a) < w[d] {
				n++
			}
		}
		deg[k] = n
	}
}

// Degree returns the normalized OCM cell for the ordered pair (i, j) — the
// degree of Cont_partial(i, j) when it lies strictly between 0 and 1. It is
// the division every kernel performs when it emits the pair, so the two
// agree bit for bit.
func (s *Space) Degree(i, j int) float64 {
	return float64(s.ContainDegree(i, j)) / float64(len(s.Dims))
}

// ContainDims returns the dimensions (indices in ascending Space.Dims
// order) on which i's value contains j's — Algorithm 2's map_P for the
// ordered pair (i, j), and len(ContainDims) == ContainDegree. This is the
// definition, kept for the paper's Algorithm 2: no kernel reports the list,
// nothing stores it, and it has no caller outside tests and no re-export.
func (s *Space) ContainDims(i, j int) []int {
	var dims []int
	for d := range s.Dims {
		if s.DimContains(i, j, d) {
			dims = append(dims, d)
		}
	}
	return dims
}

// FullContains reports Cont_full(i, j) per the canonical semantics.
func (s *Space) FullContains(i, j int) bool {
	if i == j || !s.SharesMeasure(i, j) {
		return false
	}
	for d := range s.Dims {
		if !s.DimContains(i, j, d) {
			return false
		}
	}
	return true
}

// PartialContains reports Cont_partial(i, j): shared measure and OCM degree
// strictly between 0 and 1.
func (s *Space) PartialContains(i, j int) bool {
	if i == j || !s.SharesMeasure(i, j) {
		return false
	}
	deg := s.ContainDegree(i, j)
	return deg > 0 && deg < len(s.Dims)
}

// Complementary reports Compl(i, j): identical values on every dimension
// (with absent dimensions at the root), for distinct observations.
func (s *Space) Complementary(i, j int) bool {
	if i == j {
		return false
	}
	vi, vj := s.vals[i], s.vals[j]
	for d := range vi {
		if vi[d] != vj[d] {
			return false
		}
	}
	return true
}

// Signature returns the lattice coordinate of observation i: the hierarchy
// level of its value on each dimension.
func (s *Space) Signature(i int) lattice.Signature {
	sig := make(lattice.Signature, len(s.Dims))
	for d := range s.Dims {
		sig[d] = s.levels[d][s.vals[i][d]]
	}
	return sig
}

// Row builds the occurrence-matrix bit-vector row of observation i: for
// each dimension, the bits of the value and all its ancestors up to the
// root (§3.1's bottom-up encoding).
func (s *Space) Row(i int) *bitvec.Vector {
	v := bitvec.New(s.numCols)
	for d := range s.Dims {
		par, col := s.parent[d], s.col[d]
		base := s.colStart[d]
		for c := s.vals[i][d]; c != -1; c = par[c] {
			v.Set(base + int(col[c]))
		}
	}
	return v
}
