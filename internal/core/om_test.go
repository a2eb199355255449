package core

import (
	"testing"

	"rdfcube/internal/gen"
	"rdfcube/internal/obsv"
	"rdfcube/internal/rdf"
)

// matrixSpace compiles the paper's seven-observation Table 2/3 corpus and
// returns the space plus a name→index map.
func matrixSpace(t *testing.T) (*Space, map[string]int) {
	t.Helper()
	c := gen.PaperMatrixExample()
	s, err := NewSpace(c)
	if err != nil {
		t.Fatalf("NewSpace: %v", err)
	}
	idx := map[string]int{}
	for i, o := range s.Obs {
		idx[o.URI.Local()] = i
	}
	if len(idx) != 7 {
		t.Fatalf("want 7 observations, got %d", len(idx))
	}
	return s, idx
}

func exampleSpace(t *testing.T) (*Space, map[string]int) {
	t.Helper()
	c := gen.PaperExample()
	s, err := NewSpace(c)
	if err != nil {
		t.Fatalf("NewSpace: %v", err)
	}
	idx := map[string]int{}
	for i, o := range s.Obs {
		idx[o.URI.Local()] = i
	}
	if len(idx) != 10 {
		t.Fatalf("want 10 observations, got %d", len(idx))
	}
	return s, idx
}

func dimIndex(t *testing.T, s *Space, dim rdf.Term) int {
	t.Helper()
	for d, p := range s.Dims {
		if p == dim {
			return d
		}
	}
	t.Fatalf("dimension %s not in space", dim)
	return -1
}

// TestOccurrenceMatrixTable2 is the golden test for the paper's Table 2:
// the OM rows of the worked example, bit by bit. The expectations are the
// ancestor-closure encoding of §3.1 applied to the Figure 1 hierarchies;
// two cells of the printed table (obs12's refPeriod Jan11 — printed for
// obs22 — and obs22's Jan11 flag) are typos in the paper and are asserted
// per the definition here.
func TestOccurrenceMatrixTable2(t *testing.T) {
	s, idx := matrixSpace(t)
	om := BuildOccurrenceMatrix(s)

	// expected set bits per observation, named by code term.
	expect := map[string][]rdf.Term{
		"o11": {gen.GeoWorld, gen.GeoEurope, gen.GeoGreece, gen.GeoAthens,
			gen.TimeAll, gen.Time2001, gen.SexTotal},
		"o12": {gen.GeoWorld, gen.GeoAmerica, gen.GeoUS, gen.GeoTexas, gen.GeoAustin,
			gen.TimeAll, gen.Time2011, gen.SexTotal, gen.SexMale},
		"o21": {gen.GeoWorld, gen.GeoEurope, gen.GeoGreece,
			gen.TimeAll, gen.Time2011, gen.SexTotal},
		"o22": {gen.GeoWorld, gen.GeoEurope, gen.GeoItaly,
			gen.TimeAll, gen.Time2011, gen.SexTotal},
		"o31": {gen.GeoWorld, gen.GeoEurope, gen.GeoGreece, gen.GeoAthens,
			gen.TimeAll, gen.Time2001, gen.SexTotal},
		"o32": {gen.GeoWorld, gen.GeoEurope, gen.GeoGreece, gen.GeoAthens,
			gen.TimeAll, gen.Time2011, gen.TimeJan, gen.SexTotal},
		"o33": {gen.GeoWorld, gen.GeoEurope, gen.GeoItaly, gen.GeoRome,
			gen.TimeAll, gen.Time2011, gen.TimeFeb, gen.SexTotal},
	}

	// Resolve every example code to its global column.
	colOf := func(code rdf.Term) int {
		for d := range s.Dims {
			if c := om.Column(d, code); c >= 0 {
				return c
			}
		}
		t.Fatalf("code %s not found in any dimension", code)
		return -1
	}

	for name, codes := range expect {
		i := idx[name]
		row := om.Rows[i]
		want := map[int]bool{}
		for _, code := range codes {
			want[colOf(code)] = true
		}
		for col := 0; col < om.NumCols(); col++ {
			if row.Get(col) != want[col] {
				t.Errorf("%s: column %d: got bit %v, want %v", name, col, row.Get(col), want[col])
			}
		}
		if row.Count() != len(codes) {
			t.Errorf("%s: %d bits set, want %d", name, row.Count(), len(codes))
		}
	}
}

// TestRowMatchesDirectChecks cross-validates the bit-vector sf test against
// the direct parent-chain ancestry checks for every pair and dimension.
func TestRowMatchesDirectChecks(t *testing.T) {
	s, _ := exampleSpace(t)
	om := BuildOccurrenceMatrix(s)
	for i := 0; i < s.N(); i++ {
		for j := 0; j < s.N(); j++ {
			for d := 0; d < s.NumDims(); d++ {
				bit := om.ContainsDim(i, j, d)
				direct := s.DimContains(i, j, d)
				if bit != direct {
					t.Fatalf("pair (%d,%d) dim %d: bitvec=%v direct=%v", i, j, d, bit, direct)
				}
			}
		}
	}
}

// TestLatticeKernelsLeaveOMUnbuilt pins the lattice kernels off the
// occurrence matrix: cubeMasking, its prefetched and pooled forms and
// Insert compare code rows, so a space that only ever runs them — a
// service restarted from a snapshot — never materializes NumCols bits per
// observation. The §3.1 baseline builds the matrix, once.
func TestLatticeKernelsLeaveOMUnbuilt(t *testing.T) {
	c := gen.RealWorld(gen.RealWorldConfig{TotalObs: 400, Seed: 1})
	base, tail := splitCorpus(c, len(c.Observations())-50)
	col := obsv.NewCollector()
	s, err := NewSpaceObs(base, col)
	if err != nil {
		t.Fatal(err)
	}
	omBuilds := func() (n int) {
		for _, sp := range col.Spans() {
			if sp.Name == SpanOMBuild {
				n++
			}
		}
		return n
	}
	for _, alg := range []Algorithm{AlgorithmCubeMasking, AlgorithmCubeMaskingPrefetch, AlgorithmParallel} {
		for _, workers := range []int{1, 4} {
			mustCompute(t, s, alg, Options{Tasks: TaskAll, Workers: workers}, &Counter{})
		}
	}
	inc := NewIncrementalFrom(s, TaskAll, nil, nil)
	for _, o := range tail {
		if _, err := inc.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	if n := omBuilds(); n != 0 {
		t.Errorf("the lattice kernels and %d inserts built the occurrence matrix %d times, want 0", len(tail), n)
	}
	mustCompute(t, s, AlgorithmBaseline, Options{Tasks: TaskAll}, &Counter{})
	if n := omBuilds(); n != 1 {
		t.Errorf("one baseline run recorded %d %s spans, want 1", n, SpanOMBuild)
	}
}
