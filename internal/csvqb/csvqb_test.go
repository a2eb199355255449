package csvqb

import (
	"context"
	"strings"
	"testing"

	"rdfcube/internal/core"
	"rdfcube/internal/gen"
	"rdfcube/internal/rdf"
)

const sampleCSV = `refArea,refPeriod,sex,population
Athens,Y2001,Total,5000000
Austin,Y2011,Male,445000
Austin,Y2011,Total,885000
`

func TestConvertBasic(t *testing.T) {
	reg := gen.PaperHierarchies()
	corpus, err := Convert(strings.NewReader(sampleCSV), reg, Options{
		DimensionFor: map[string]rdf.Term{
			"refArea":   gen.DimRefArea,
			"refPeriod": gen.DimRefPeriod,
			"sex":       gen.DimSex,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if corpus.NumObservations() != 3 {
		t.Fatalf("observations = %d", corpus.NumObservations())
	}
	if err := corpus.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	ds := corpus.Datasets[0]
	if len(ds.Schema.Dimensions) != 3 || len(ds.Schema.Measures) != 1 {
		t.Fatalf("schema: %d dims, %d measures", len(ds.Schema.Dimensions), len(ds.Schema.Measures))
	}
	o := ds.Observations[0]
	if o.Value(gen.DimRefArea) != gen.GeoAthens {
		t.Errorf("refArea = %v", o.Value(gen.DimRefArea))
	}
	if o.MeasureValues[0].Value != "5000000" {
		t.Errorf("measure = %v", o.MeasureValues[0])
	}
}

func TestConvertHeaderNameMatching(t *testing.T) {
	// Headers matching registry dimension local names need no explicit map.
	reg := gen.PaperHierarchies()
	corpus, err := Convert(strings.NewReader(sampleCSV), reg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if corpus.NumObservations() != 3 {
		t.Errorf("observations = %d", corpus.NumObservations())
	}
}

func TestConvertEmptyCellMeansRoot(t *testing.T) {
	reg := gen.PaperHierarchies()
	csv := "refArea,refPeriod,sex,population\nAthens,Y2001,,100\n"
	corpus, err := Convert(strings.NewReader(csv), reg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	o := corpus.Datasets[0].Observations[0]
	if o.Value(gen.DimSex) != gen.SexTotal {
		t.Errorf("empty sex cell must resolve to the root: %v", o.Value(gen.DimSex))
	}
}

func TestConvertCaseInsensitiveCodes(t *testing.T) {
	reg := gen.PaperHierarchies()
	csv := "refArea,refPeriod,sex,population\nATHENS,y2001,TOTAL,1\n"
	corpus, err := Convert(strings.NewReader(csv), reg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if corpus.Datasets[0].Observations[0].Value(gen.DimRefArea) != gen.GeoAthens {
		t.Errorf("case-insensitive code match failed")
	}
}

func TestConvertFuzzyCodes(t *testing.T) {
	reg := gen.PaperHierarchies()
	csv := "refArea,refPeriod,sex,population\nAthens_GR,Y2001,Total,1\n"
	if _, err := Convert(strings.NewReader(csv), reg, Options{}); err == nil {
		t.Fatalf("unmatched code must fail without fuzzy matching")
	}
	corpus, err := Convert(strings.NewReader(csv), reg, Options{FuzzyCodes: true, FuzzyThreshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if corpus.Datasets[0].Observations[0].Value(gen.DimRefArea) != gen.GeoAthens {
		t.Errorf("fuzzy match failed: %v", corpus.Datasets[0].Observations[0].Value(gen.DimRefArea))
	}
}

func TestConvertNumericDetectionAndCommas(t *testing.T) {
	reg := gen.PaperHierarchies()
	csv := "refArea,refPeriod,sex,headcount\nAthens,Y2001,Total,\"82,350,000\"\n"
	corpus, err := Convert(strings.NewReader(csv), reg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := corpus.Datasets[0].Observations[0].MeasureValues[0]
	if m.Value != "82350000" || m.Datatype != rdf.XSDInteger {
		t.Errorf("comma-grouped integer: %v", m)
	}
	if corpus.Datasets[0].Schema.Measures[0].Local() != "headcount" {
		t.Errorf("generated measure name: %v", corpus.Datasets[0].Schema.Measures[0])
	}
}

func TestConvertErrors(t *testing.T) {
	reg := gen.PaperHierarchies()
	cases := map[string]string{
		"empty":        "",
		"headerOnly":   "refArea,population\n",
		"unknownCol":   "refArea,mystery\nAthens,notanumber\n",
		"badCode":      "refArea,refPeriod,sex,population\nAtlantis,Y2001,Total,5\n",
		"raggedRow":    "refArea,refPeriod,sex,population\nAthens,Y2001,Total\n",
		"noDimensions": "population\n5\n",
	}
	for name, src := range cases {
		if _, err := Convert(strings.NewReader(src), reg, Options{}); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestConvertFeedsAlgorithms runs the full pipeline: CSV in, relationships
// out — the ingestion path the paper used for its non-RDF sources.
func TestConvertFeedsAlgorithms(t *testing.T) {
	reg := gen.PaperHierarchies()
	popCSV := "refArea,refPeriod,sex,population\nGreece,Y2011,Total,10800000\nAthens,Y2011,Total,3090000\n"
	corpus, err := Convert(strings.NewReader(popCSV), reg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, res, err := core.ComputeCorpusCtx(context.Background(), corpus, core.AlgorithmCubeMasking, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FullSet) != 1 {
		t.Fatalf("expected one containment pair, got %v", res.FullSet)
	}
	a := s.Obs[res.FullSet[0].A].Value(gen.DimRefArea)
	if a != gen.GeoGreece {
		t.Errorf("containing observation must be Greece-level, got %v", a)
	}
}

func TestConvertMultipleMeasures(t *testing.T) {
	reg := gen.PaperHierarchies()
	csv := "refArea,refPeriod,unemployment,poverty\nGreece,Y2011,26,15\nItaly,Y2011,20,10\n"
	corpus, err := Convert(strings.NewReader(csv), reg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sch := corpus.Datasets[0].Schema
	if len(sch.Measures) != 2 {
		t.Fatalf("measures = %d, want 2", len(sch.Measures))
	}
	o := corpus.Datasets[0].Observations[0]
	nonzero := 0
	for _, v := range o.MeasureValues {
		if !v.IsZero() {
			nonzero++
		}
	}
	if nonzero != 2 {
		t.Errorf("both measures must be populated: %v", o.MeasureValues)
	}
}

func TestConvertEmptyMeasureCell(t *testing.T) {
	reg := gen.PaperHierarchies()
	csv := "refArea,refPeriod,population\nGreece,Y2011,100\nItaly,Y2011,\n"
	corpus, err := Convert(strings.NewReader(csv), reg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	o := corpus.Datasets[0].Observations[1]
	if !o.MeasureValues[0].IsZero() {
		t.Errorf("empty measure cell must stay unset: %v", o.MeasureValues[0])
	}
}
