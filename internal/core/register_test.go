package core

import (
	"testing"

	"rdfcube/internal/gen"
	"rdfcube/internal/qb"
	"rdfcube/internal/rdf"
)

func registerExample(t *testing.T) (*Space, map[string]int) {
	t.Helper()
	s, idx := exampleSpace(t)
	return s, idx
}

func TestRegisterDatasetGrowsMeasureUniverse(t *testing.T) {
	s, idx := registerExample(t)
	before := len(s.Measures)

	// A measure chosen to sort BEFORE the existing ones, forcing every
	// existing observation's mask bits to shift.
	newMeasure := rdf.NewIRI("http://example.org/measure/aaa-first")
	ds := &qb.Dataset{
		URI:    rdf.NewIRI("http://example.org/dataset/D-new"),
		Schema: qb.NewSchema([]rdf.Term{gen.DimRefArea, gen.DimRefPeriod}, []rdf.Term{newMeasure}),
	}
	if err := s.RegisterDataset(ds); err != nil {
		t.Fatalf("RegisterDataset: %v", err)
	}

	if len(s.Measures) != before+1 {
		t.Fatalf("measures: %d, want %d", len(s.Measures), before+1)
	}
	for i := 1; i < len(s.Measures); i++ {
		if s.Measures[i].Compare(s.Measures[i-1]) <= 0 {
			t.Fatalf("measures not strictly sorted at %d: %v", i, s.Measures)
		}
	}
	// The sorted-union invariant snapshot decoding checks.
	all := s.Corpus.AllMeasures()
	if len(all) != len(s.Measures) {
		t.Fatalf("AllMeasures: %d vs Space.Measures %d", len(all), len(s.Measures))
	}
	for i := range all {
		if all[i] != s.Measures[i] {
			t.Fatalf("measure %d: %v vs %v", i, all[i], s.Measures[i])
		}
	}

	// Existing relationships survive the mask renumbering.
	if !s.SharesMeasure(idx["o21"], idx["o31"]) {
		t.Errorf("o21/o31 must still share a measure after registration")
	}
	if s.SharesMeasure(idx["o11"], idx["o31"]) {
		t.Errorf("o11/o31 must still share no measure")
	}
	if got := s.Corpus.Datasets[len(s.Corpus.Datasets)-1]; got != ds {
		t.Errorf("registered dataset not appended to corpus")
	}
	// An observation appended afterwards gets its mask under the new
	// numbering too: a twin of o31 shares what o31 shares.
	twin := *s.Obs[idx["o31"]]
	twin.URI = rdf.NewIRI("http://example.org/obs/o31-twin")
	ti, err := s.AppendObservation(&twin)
	if err != nil {
		t.Fatalf("append after registration: %v", err)
	}
	if s.MeasureMask(ti) != s.MeasureMask(idx["o31"]) || !s.SharesMeasure(ti, idx["o21"]) || s.SharesMeasure(ti, idx["o11"]) {
		t.Errorf("twin of o31 appended with mask %b, o31 has %b", s.MeasureMask(ti), s.MeasureMask(idx["o31"]))
	}
}

func TestRegisterDatasetAcceptsInsertsAfterwards(t *testing.T) {
	s, _ := registerExample(t)
	inc := NewIncrementalFrom(s, TaskAll, NewResult(), nil)
	m := rdf.NewIRI("http://example.org/measure/registered")
	ds := &qb.Dataset{
		URI:    rdf.NewIRI("http://example.org/dataset/D-reg"),
		Schema: qb.NewSchema([]rdf.Term{gen.DimRefArea}, []rdf.Term{m}),
	}
	if err := s.RegisterDataset(ds); err != nil {
		t.Fatalf("RegisterDataset: %v", err)
	}
	obs := &qb.Observation{
		URI:           rdf.NewIRI("http://example.org/obs/after-reg"),
		Dataset:       ds,
		DimValues:     []rdf.Term{gen.GeoAthens},
		MeasureValues: []rdf.Term{rdf.NewTypedLiteral("42", rdf.XSDInteger)},
	}
	if _, err := inc.Insert(obs); err != nil {
		t.Fatalf("insert into registered dataset: %v", err)
	}
}

func TestRegisterDatasetRejections(t *testing.T) {
	s, _ := registerExample(t)
	m := rdf.NewIRI("http://example.org/measure/x")

	// Unknown dimension: the universe is fixed at compile.
	bad := &qb.Dataset{
		URI:    rdf.NewIRI("http://example.org/dataset/D-baddim"),
		Schema: qb.NewSchema([]rdf.Term{rdf.NewIRI("http://example.org/dim/unknown")}, []rdf.Term{m}),
	}
	if err := s.RegisterDataset(bad); err == nil {
		t.Errorf("unknown dimension accepted")
	}

	// Duplicate URI.
	dup := &qb.Dataset{
		URI:    s.Corpus.Datasets[0].URI,
		Schema: qb.NewSchema(nil, []rdf.Term{m}),
	}
	if err := s.RegisterDataset(dup); err == nil {
		t.Errorf("duplicate dataset URI accepted")
	}

	// Non-empty dataset.
	full := &qb.Dataset{
		URI:    rdf.NewIRI("http://example.org/dataset/D-full"),
		Schema: qb.NewSchema([]rdf.Term{gen.DimRefArea}, []rdf.Term{m}),
	}
	if _, err := full.AddObservation(rdf.NewIRI("http://example.org/obs/pre"),
		[]rdf.Term{gen.GeoAthens}, []rdf.Term{rdf.NewTypedLiteral("1", rdf.XSDInteger)}); err != nil {
		t.Fatalf("AddObservation: %v", err)
	}
	if err := s.RegisterDataset(full); err == nil {
		t.Errorf("non-empty dataset accepted")
	}

	// Measure overflow.
	over := make([]rdf.Term, 0, MaxMeasures+1)
	for i := 0; i < MaxMeasures+1; i++ {
		over = append(over, rdf.NewIRI(rdf.NewIRI("http://example.org/measure/m").Value+string(rune('a'+i%26))+string(rune('a'+i/26))))
	}
	wide := &qb.Dataset{
		URI:    rdf.NewIRI("http://example.org/dataset/D-wide"),
		Schema: qb.NewSchema(nil, over),
	}
	if err := s.RegisterDataset(wide); err == nil {
		t.Errorf("measure overflow accepted")
	}
}
