package core

import (
	"testing"

	"rdfcube/internal/gen"
	"rdfcube/internal/rdf"
)

func TestMergeComplementsFigure3(t *testing.T) {
	s, idx := exampleSpace(t)
	res := NewResult()
	mustCompute(t, s, AlgorithmBaseline, Options{Tasks: TaskAll}, res)
	rows := MergeComplements(s, res)
	if len(rows) != 2 {
		t.Fatalf("merged rows = %d, want 2", len(rows))
	}
	// Row 1: o11 + o31 → population and unemployment of Athens/2001.
	var athens *MergedRow
	for i := range rows {
		for _, m := range rows[i].Members {
			if m == idx["o11"] {
				athens = &rows[i]
			}
		}
	}
	if athens == nil {
		t.Fatalf("no merged row for o11")
	}
	if len(athens.Members) != 2 {
		t.Errorf("members: %v", athens.Members)
	}
	pop := athens.Measures[gen.MeasPopulation]
	unemp := athens.Measures[gen.MeasUnemployment]
	if pop.IsZero() || unemp.IsZero() {
		t.Errorf("merged measures incomplete: %v", athens.Measures)
	}
	if pop.Value != "5000000" || unemp.Value != "0.1" {
		t.Errorf("values: pop=%s unemp=%s", pop.Value, unemp.Value)
	}
	if len(athens.Conflicts) != 0 {
		t.Errorf("unexpected conflicts: %v", athens.Conflicts)
	}
	// The row's coordinates are Athens/2001/Total.
	wantDims := map[string]bool{"Athens": true, "Y2001": true, "Total": true}
	for _, v := range athens.DimValues {
		if !wantDims[v.Local()] {
			t.Errorf("unexpected coordinate %v", v)
		}
	}
}

func TestMergeComplementsConflict(t *testing.T) {
	// Two complementary observations reporting the same measure with
	// different values must flag a conflict.
	c := gen.PaperExample()
	d3 := c.Datasets[2]
	vals := make([]rdf.Term, len(d3.Schema.Dimensions))
	for i, p := range d3.Schema.Dimensions {
		switch p {
		case gen.DimRefArea:
			vals[i] = gen.GeoAthens
		case gen.DimRefPeriod:
			vals[i] = gen.Time2001
		}
	}
	if _, err := d3.AddObservation(rdf.NewIRI("http://x/dup31"), vals,
		[]rdf.Term{rdf.NewDecimal(0.99)}); err != nil {
		t.Fatal(err)
	}
	s, err := NewSpace(c)
	if err != nil {
		t.Fatal(err)
	}
	res := NewResult()
	mustCompute(t, s, AlgorithmBaseline, Options{Tasks: TaskAll}, res)
	rows := MergeComplements(s, res)
	found := false
	for _, r := range rows {
		if len(r.Conflicts) > 0 && r.Conflicts[0] == gen.MeasUnemployment {
			found = true
		}
	}
	if !found {
		t.Errorf("conflicting unemployment values must be flagged: %+v", rows)
	}
}
