package core

import (
	"testing"

	"rdfcube/internal/gen"
	"rdfcube/internal/qb"
	"rdfcube/internal/rdf"
)

// TestRollUpSums rolls the example's D3 unemployment observations up to
// country level on refArea and checks grouping and sums.
func TestRollUpSums(t *testing.T) {
	c := gen.PaperExample()
	s, err := NewSpace(c)
	if err != nil {
		t.Fatal(err)
	}
	// D3 holds o31 (Athens, 2001), o32 (Athens, Jan11), o33 (Rome, Feb11),
	// o34 (Ioannina, Jan11), o35 (Austin, 2011). Rolling refArea up to
	// level 2 (countries) maps Athens/Ioannina → Greece, Rome → Italy,
	// Austin → (level-4 city under level-3 Texas → level-2 US).
	out, err := RollUp(s, 2, gen.DimRefArea, 2, AggSum)
	if err != nil {
		t.Fatal(err)
	}
	// Groups: (Greece,2001), (Greece,Jan11)×2 merged, (Italy,Feb11),
	// (US,2011) = 4 observations.
	if len(out.Observations) != 4 {
		t.Fatalf("rolled-up observations = %d, want 4\n%v", len(out.Observations), names(out))
	}
	// The merged Greece/Jan11 group sums o32 (0.30) and o34 (0.15).
	found := false
	for _, o := range out.Observations {
		if o.Value(gen.DimRefArea) == gen.GeoGreece && o.Value(gen.DimRefPeriod) == gen.TimeJan {
			found = true
			if v := o.MeasureValues[0].Value; v != "0.45" {
				t.Errorf("sum = %s, want 0.45", v)
			}
		}
	}
	if !found {
		t.Errorf("missing merged Greece/Jan2011 group: %v", names(out))
	}
}

func names(ds *qb.Dataset) []string {
	var out []string
	for _, o := range ds.Observations {
		out = append(out, o.Value(gen.DimRefArea).Local()+"/"+o.Value(gen.DimRefPeriod).Local())
	}
	return out
}

// TestRollUpMakesComparable reproduces the paper's motivating narrative:
// after rolling D3 up on refPeriod to year level, the Athens-January
// observation becomes fully containable by the Greece-2011 one, and a
// further refArea roll-up makes them complementary-shaped.
func TestRollUpMakesComparable(t *testing.T) {
	c := gen.PaperExample()
	s, err := NewSpace(c)
	if err != nil {
		t.Fatal(err)
	}
	// Roll D3 up on refPeriod to level 1 (years).
	up, err := RollUp(s, 2, gen.DimRefPeriod, 1, AggAvg)
	if err != nil {
		t.Fatal(err)
	}
	// Build a corpus with D2 (Greece/Italy 2011) and the rolled-up D3.
	c2 := qb.NewCorpus(c.Hierarchies)
	c2.AddDataset(c.Datasets[1])
	c2.AddDataset(up)
	s2, err := NewSpace(c2)
	if err != nil {
		t.Fatal(err)
	}
	res := NewResult()
	mustCompute(t, s2, AlgorithmBaseline, Options{Tasks: TaskAll}, res)
	// (Greece, 2011) must now fully contain the rolled-up (Athens, 2011).
	foundContainment := false
	for _, p := range res.FullSet {
		a, b := s2.Obs[p.A], s2.Obs[p.B]
		if a.Value(gen.DimRefArea) == gen.GeoGreece && b.Value(gen.DimRefArea) == gen.GeoAthens &&
			b.Value(gen.DimRefPeriod) == gen.Time2011 {
			foundContainment = true
		}
	}
	if !foundContainment {
		t.Errorf("rolled-up Athens/2011 must be contained by Greece/2011")
	}
}

func TestRollUpAggregations(t *testing.T) {
	c := gen.PaperExample()
	s, err := NewSpace(c)
	if err != nil {
		t.Fatal(err)
	}
	avg, err := RollUp(s, 2, gen.DimRefArea, 0, AggAvg) // everything → World
	if err != nil {
		t.Fatal(err)
	}
	cnt, err := RollUp(s, 2, gen.DimRefArea, 0, AggCount)
	if err != nil {
		t.Fatal(err)
	}
	// D3's five observations collapse into World × {2001, Jan11, Feb11, 2011}.
	if len(avg.Observations) != 4 || len(cnt.Observations) != 4 {
		t.Fatalf("groups: avg %d cnt %d, want 4", len(avg.Observations), len(cnt.Observations))
	}
	for _, o := range cnt.Observations {
		if o.Value(gen.DimRefPeriod) == gen.TimeJan && o.MeasureValues[0].Value != "2" {
			t.Errorf("count(World, Jan2011) = %s, want 2", o.MeasureValues[0].Value)
		}
	}
	for _, o := range avg.Observations {
		if o.Value(gen.DimRefPeriod) == gen.TimeJan {
			if v := o.MeasureValues[0].Value; v != "0.225" {
				t.Errorf("avg(World, Jan2011) = %s, want 0.225", v)
			}
		}
	}
}

func TestRollUpErrors(t *testing.T) {
	c := gen.PaperExample()
	s, err := NewSpace(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RollUp(s, 99, gen.DimRefArea, 0, AggSum); err == nil {
		t.Errorf("bad dataset index must fail")
	}
	if _, err := RollUp(s, 2, rdf.NewIRI("http://x/nope"), 0, AggSum); err == nil {
		t.Errorf("unknown dimension must fail")
	}
	if _, err := RollUp(s, 2, gen.DimRefArea, 99, AggSum); err == nil {
		t.Errorf("bad level must fail")
	}
	// D2 has no sex dimension: rolling it on sex must fail.
	if _, err := RollUp(s, 1, gen.DimSex, 0, AggSum); err == nil {
		t.Errorf("dimension outside schema must fail")
	}
}
