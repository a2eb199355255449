package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"rdfcube/internal/gen"
	"rdfcube/internal/qb"
	"rdfcube/internal/rdf"
)

func TestSpaceAccessors(t *testing.T) {
	s, idx := exampleSpace(t)
	if s.N() != 10 || s.NumDims() != 3 {
		t.Fatalf("shape: n=%d p=%d", s.N(), s.NumDims())
	}
	// Column layout: contiguous, ordered, covering NumCols.
	total := 0
	for d := 0; d < s.NumDims(); d++ {
		lo, hi := s.ColRange(d)
		if lo != total || hi <= lo {
			t.Errorf("dim %d: range [%d,%d) not contiguous at %d", d, lo, hi, total)
		}
		total = hi
	}
	if total != s.NumCols() {
		t.Errorf("columns: %d vs %d", total, s.NumCols())
	}

	i := idx["o11"]
	d := dimIndex(t, s, gen.DimRefArea)
	if s.Value(i, d) != gen.GeoAthens {
		t.Errorf("Value(o11, refArea) = %v", s.Value(i, d))
	}
	if s.Level(i, d) != 3 {
		t.Errorf("Level(o11, refArea) = %d, want 3", s.Level(i, d))
	}
	// o21 (D2) has no sex dimension: defaults to root at level 0.
	j := idx["o21"]
	sd := dimIndex(t, s, gen.DimSex)
	if s.Value(j, sd) != gen.SexTotal || s.Level(j, sd) != 0 {
		t.Errorf("root default: %v level %d", s.Value(j, sd), s.Level(j, sd))
	}
	// Measure masks: o21 (unemployment+poverty) shares with o31
	// (unemployment) but not with o11 (population).
	if !s.SharesMeasure(idx["o21"], idx["o31"]) {
		t.Errorf("o21/o31 must share a measure")
	}
	if s.SharesMeasure(idx["o11"], idx["o31"]) {
		t.Errorf("o11/o31 share no measure")
	}
	if s.MeasureMask(idx["o21"]) == 0 {
		t.Errorf("empty measure mask")
	}
}

func TestSignatureMatchesLevels(t *testing.T) {
	s, idx := exampleSpace(t)
	sig := s.Signature(idx["o32"]) // Athens (3), Jan2011 (2), sex root (0)
	aD := dimIndex(t, s, gen.DimRefArea)
	tD := dimIndex(t, s, gen.DimRefPeriod)
	sD := dimIndex(t, s, gen.DimSex)
	if sig[aD] != 3 || sig[tD] != 2 || sig[sD] != 0 {
		t.Errorf("signature(o32) = %v", sig)
	}
}

// TestAppendObservationMatchesCompile: the code and measure maps NewSpace
// keeps for the insert path give an appended observation the row and the
// mask the compile pass gives it — every observation of several corpora,
// appended to a space compiled from the same datasets emptied — and an
// unknown value or measure is still refused by name.
func TestAppendObservationMatchesCompile(t *testing.T) {
	corpora := map[string]*qb.Corpus{
		"example":   gen.PaperExample(),
		"realworld": gen.RealWorld(gen.RealWorldConfig{TotalObs: 300, Seed: 9}),
	}
	for seed := int64(0); seed < 5; seed++ {
		corpora[fmt.Sprintf("random-%d", seed)] = randomCorpus(seed)
	}
	for name, c := range corpora {
		want, err := NewSpace(c)
		if err != nil {
			t.Fatal(err)
		}
		base, all := holdOut(c, 1)
		s, err := NewSpace(base)
		if err != nil {
			t.Fatal(err)
		}
		for i, o := range all {
			if err := s.ValidateObservation(o); err != nil {
				t.Fatalf("%s: validate %s: %v", name, o.URI, err)
			}
			if got, err := s.AppendObservation(o); err != nil || got != i {
				t.Fatalf("%s: append %s: index %d, %v; want %d", name, o.URI, got, err, i)
			}
			if !slices.Equal(s.vals[i], want.vals[i]) || s.mmask[i] != want.mmask[i] {
				t.Fatalf("%s: observation %d appended as row %v mask %b, compiled as row %v mask %b",
					name, i, s.vals[i], s.mmask[i], want.vals[i], want.mmask[i])
			}
		}

		stray := *all[0]
		stray.DimValues = slices.Clone(stray.DimValues)
		stray.DimValues[0] = rdf.NewIRI("http://nowhere/code")
		if err := s.ValidateObservation(&stray); err == nil || !strings.Contains(err.Error(), "not in code list of") {
			t.Errorf("%s: unknown value: got %v", name, err)
		}
		foreign := *all[0]
		foreign.Dataset = &qb.Dataset{URI: all[0].Dataset.URI,
			Schema: qb.NewSchema(all[0].Dataset.Schema.Dimensions, []rdf.Term{rdf.NewIRI("http://nowhere/measure")})}
		if _, err := s.AppendObservation(&foreign); err == nil || !strings.Contains(err.Error(), "not in the space") || s.N() != len(all) {
			t.Errorf("%s: unknown measure: got %v with %d observations, want an error and %d", name, err, s.N(), len(all))
		}
	}
}

// TestIntervalMatchesParentChain pins the preorder numbering to the code
// lists it numbers: for every dimension and every ordered pair of codes,
// used by an observation or not, the interval test IsAncestorIdx answers
// what the parent chain answers (a ≻ b iff a is on CodeList.Ancestors(b),
// which the hierarchy package pins to CodeList.IsAncestor; one chain per b
// keeps the 1 806-code refArea list cheap under -race), and Value
// maps each observation's rank back to its own term (the root for an
// absent dimension). In every case but the chain and the flat list the
// breadth-first (Codes) and preorder orders differ, so a rank used as a
// Codes index, or the reverse, shows; the bushy tree is the smallest such.
func TestIntervalMatchesParentChain(t *testing.T) {
	cases := []struct {
		name     string
		c        *qb.Corpus
		reorders bool
	}{
		{"realworld", gen.RealWorld(gen.RealWorldConfig{TotalObs: 1500, Seed: 7}), true},
		{"figure 1", gen.PaperExample(), true},
		{"chain of 256", oneListCorpus(255, func(c int) int { return c - 1 }), false},
		{"flat", oneListCorpus(8, func(int) int { return -1 }), false},
		{"bushy", oneListCorpus(39, func(c int) int { return c/3 - 1 }), true},
	}
	for _, tc := range cases {
		s, err := NewSpace(tc.c)
		if err != nil {
			t.Fatalf("%s: NewSpace: %v", tc.name, err)
		}
		reordered := false
		for d, cl := range s.Lists {
			codes := cl.Codes()
			pos := make(map[rdf.Term]int, len(codes))
			ranks := make([]int32, len(codes))
			for ci, code := range codes {
				pos[code] = ci
				ranks[ci] = s.codeIdx[d][code]
				reordered = reordered || ranks[ci] != int32(ci)
			}
			onChain := make([]bool, len(codes))
			for bi, b := range codes {
				chain := cl.Ancestors(b)
				for _, c := range chain {
					onChain[pos[c]] = true
				}
				for ai, ra := range ranks {
					if got := s.IsAncestorIdx(d, ra, ranks[bi]); got != onChain[ai] {
						t.Fatalf("%s: dimension %s: IsAncestorIdx(%s, %s) = %v, parent chain says %v", tc.name, s.Dims[d], codes[ai], b, got, onChain[ai])
					}
				}
				for _, c := range chain {
					onChain[pos[c]] = false
				}
			}
		}
		if reordered != tc.reorders {
			t.Errorf("%s: preorder differs from Codes order: %v, want %v", tc.name, reordered, tc.reorders)
		}
		for i, o := range s.Obs {
			for d, dim := range s.Dims {
				want := o.Value(dim)
				if want.IsZero() {
					want = s.Lists[d].Root
				}
				if got := s.Value(i, d); got != want {
					t.Fatalf("%s: Value(%d, %s) = %s, want %s", tc.name, i, dim, got, want)
				}
			}
		}
	}
	if _, err := NewSpace(oneListCorpus(256, func(c int) int { return c - 1 })); err == nil {
		t.Error("a chain 256 levels deep was accepted")
	}
}
