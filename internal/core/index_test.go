package core

import (
	"testing"

	"rdfcube/internal/gen"
	"rdfcube/internal/rdf"
)

func buildExampleIndex(t *testing.T) (*Index, map[string]int) {
	t.Helper()
	s, idx := exampleSpace(t)
	ix, err := BuildIndex(s, AlgorithmCubeMasking, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ix, idx
}

func TestIndexNeighborhoods(t *testing.T) {
	ix, idx := buildExampleIndex(t)
	name := func(i int) string { return ix.Space().Obs[i].URI.Local() }

	got := map[string]bool{}
	for _, j := range ix.Contains(idx["o21"]) {
		got[name(int(j))] = true
	}
	if !got["o32"] || !got["o34"] || len(got) != 2 {
		t.Errorf("Contains(o21) = %v", got)
	}

	cb := ix.ContainedBy(idx["o32"])
	if len(cb) != 1 || name(int(cb[0])) != "o21" {
		t.Errorf("ContainedBy(o32) = %v", cb)
	}

	comp := ix.Complements(idx["o11"])
	if len(comp) != 1 || name(int(comp[0])) != "o31" {
		t.Errorf("Complements(o11) = %v", comp)
	}
	// Symmetric view.
	comp = ix.Complements(idx["o31"])
	if len(comp) != 1 || name(int(comp[0])) != "o11" {
		t.Errorf("Complements(o31) = %v", comp)
	}

	if d := ix.Degree(idx["o21"], idx["o31"]); d < 0.66 || d > 0.67 {
		t.Errorf("Degree(o21, o31) = %v", d)
	}
	// A pair outside S_P answers 0 although the space derives a degree for
	// it: o21 fully contains o32 (degree 1), o12 → o11 has degree 0.
	if d := ix.Degree(idx["o21"], idx["o32"]); d != 0 || ix.Space().Degree(idx["o21"], idx["o32"]) != 1 {
		t.Errorf("Degree(o21, o32) = %v for a full pair the space gives %v, want 0 and 1", d, ix.Space().Degree(idx["o21"], idx["o32"]))
	}
	if d := ix.Degree(idx["o12"], idx["o11"]); d != 0 {
		t.Errorf("Degree(o12, o11) = %v for a non-pair, want 0", d)
	}
}

func TestIndexTopLevelMatchesSkyline(t *testing.T) {
	c := gen.RealWorld(gen.RealWorldConfig{TotalObs: 400, Seed: 21})
	s, err := NewSpace(c)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildIndex(s, AlgorithmCubeMasking, Options{Tasks: TaskFull})
	if err != nil {
		t.Fatal(err)
	}
	top := ix.TopLevel()
	sky := Skyline(s)
	if len(top) != len(sky) {
		t.Fatalf("TopLevel %d vs Skyline %d", len(top), len(sky))
	}
	for i := range top {
		if top[i] != sky[i] {
			t.Errorf("index %d: %d vs %d", i, top[i], sky[i])
		}
	}
}

func TestIndexDrillDownRollUp(t *testing.T) {
	ix, idx := buildExampleIndex(t)
	name := func(i int) string { return ix.Space().Obs[i].URI.Local() }

	// o21 directly contains o32 and o34 (no intermediate observation).
	dd := ix.DrillDown(idx["o21"])
	got := map[string]bool{}
	for _, j := range dd {
		got[name(j)] = true
	}
	if len(got) != 2 || !got["o32"] || !got["o34"] {
		t.Errorf("DrillDown(o21) = %v", got)
	}
	ru := ix.RollUp(idx["o32"])
	if len(ru) != 1 || name(ru[0]) != "o21" {
		t.Errorf("RollUp(o32) = %v", ru)
	}
}

func TestIndexTransitiveReduction(t *testing.T) {
	// Build a three-level containment chain Europe ⊃ Greece ⊃ Athens over
	// one measure: DrillDown(Europe) must return only the Greece-level
	// observation, not the transitively contained Athens one.
	c := gen.PaperExample()
	d3 := c.Datasets[2] // unemployment over (refArea, refPeriod)
	add := func(name string, area rdf.Term) int {
		vals := make([]rdf.Term, len(d3.Schema.Dimensions))
		for i, p := range d3.Schema.Dimensions {
			switch p {
			case gen.DimRefArea:
				vals[i] = area
			case gen.DimRefPeriod:
				vals[i] = gen.Time2011
			}
		}
		o, err := d3.AddObservation(rdf.NewIRI("http://x/chain/"+name), vals,
			[]rdf.Term{rdf.NewDecimal(0.1)})
		if err != nil {
			t.Fatal(err)
		}
		_ = o
		return 0
	}
	add("europe", gen.GeoEurope)
	add("greece", gen.GeoGreece)
	add("athens", gen.GeoAthens)

	s, err := NewSpace(c)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildIndex(s, AlgorithmCubeMasking, Options{Tasks: TaskFull})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]int{}
	for i, o := range s.Obs {
		byName[o.URI.Local()] = i
	}
	dd := ix.DrillDown(byName["europe"])
	names := map[string]bool{}
	for _, j := range dd {
		names[s.Obs[j].URI.Local()] = true
	}
	if names["athens"] {
		t.Errorf("DrillDown(europe) must skip transitively contained athens: %v", names)
	}
	if !names["greece"] {
		t.Errorf("DrillDown(europe) must include greece: %v", names)
	}
	ru := ix.RollUp(byName["athens"])
	ruNames := map[string]bool{}
	for _, j := range ru {
		ruNames[s.Obs[j].URI.Local()] = true
	}
	if ruNames["europe"] || !ruNames["greece"] {
		t.Errorf("RollUp(athens) = %v, want greece only among the chain", ruNames)
	}
}

func TestIndexStats(t *testing.T) {
	ix, _ := buildExampleIndex(t)
	st := ix.Stats()
	if st.Observations != 10 {
		t.Errorf("Observations = %d", st.Observations)
	}
	if st.FullPairs != 4 || st.ComplPairs != 2 {
		t.Errorf("pairs: %+v", st)
	}
	if st.PartialPairs != 43 {
		t.Errorf("partial pairs = %d, want 43", st.PartialPairs)
	}
	if st.SkylineSize == 0 || st.SkylineSize > 10 {
		t.Errorf("skyline size = %d", st.SkylineSize)
	}
}
