package integrity

import (
	"strings"
	"testing"

	"rdfcube/internal/gen"
	"rdfcube/internal/qb"
	"rdfcube/internal/rdf"
)

func TestWellFormedCorporaPass(t *testing.T) {
	for name, g := range map[string]*rdf.Graph{
		"example": qb.ExportGraph(gen.PaperExample()),
		"real":    qb.ExportGraph(gen.RealWorld(gen.RealWorldConfig{TotalObs: 150, Seed: 3})),
	} {
		vs, err := Check(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// The real-world generator may produce duplicate coordinates
		// (IC-12 is about abstract cube identity, which random statistical
		// replicas can violate legitimately); all structural constraints
		// must hold.
		for _, v := range vs {
			if v.Constraint != "IC-12" {
				t.Errorf("%s: unexpected violation %v", name, v)
			}
		}
	}
}

func violationsFor(t *testing.T, g *rdf.Graph, id string) []Violation {
	t.Helper()
	vs, err := Check(g)
	if err != nil {
		t.Fatal(err)
	}
	var out []Violation
	for _, v := range vs {
		if v.Constraint == id {
			out = append(out, v)
		}
	}
	return out
}

func TestIC1MissingDataSet(t *testing.T) {
	g := qb.ExportGraph(gen.PaperExample())
	orphan := rdf.NewIRI("http://x/orphan")
	g.Add(orphan, qb.TypeTerm, qb.ObservationTerm)
	vs := violationsFor(t, g, "IC-1")
	if len(vs) != 1 || vs[0].Node != orphan {
		t.Errorf("IC-1: %v", vs)
	}
}

func TestIC1bSeveralDataSets(t *testing.T) {
	g := qb.ExportGraph(gen.PaperExample())
	obs := rdf.NewIRI(gen.ExNS + "obs/o11")
	g.Add(obs, qb.DataSetPropTerm, rdf.NewIRI("http://x/otherDS"))
	vs := violationsFor(t, g, "IC-1b")
	if len(vs) != 1 || vs[0].Node != obs {
		t.Errorf("IC-1b: %v", vs)
	}
}

func TestIC2MissingStructure(t *testing.T) {
	g := qb.ExportGraph(gen.PaperExample())
	ds := rdf.NewIRI("http://x/bareDS")
	g.Add(ds, qb.TypeTerm, qb.DataSetTerm)
	vs := violationsFor(t, g, "IC-2")
	if len(vs) != 1 || vs[0].Node != ds {
		t.Errorf("IC-2: %v", vs)
	}
}

func TestIC3MeasureFreeDSD(t *testing.T) {
	g := qb.ExportGraph(gen.PaperExample())
	dsd := rdf.NewIRI("http://x/dsd")
	g.Add(dsd, qb.TypeTerm, rdf.NewIRI(qb.DSDClass))
	comp := rdf.NewBlank("noMeasure")
	g.Add(dsd, qb.ComponentTerm, comp)
	g.Add(comp, qb.DimensionTerm, gen.DimRefArea)
	vs := violationsFor(t, g, "IC-3")
	if len(vs) != 1 || vs[0].Node != dsd {
		t.Errorf("IC-3: %v", vs)
	}
}

func TestIC11MissingDimensionValue(t *testing.T) {
	g := qb.ExportGraph(gen.PaperExample())
	// Add an observation to D1 without its sex value.
	obs := rdf.NewIRI("http://x/noSex")
	g.Add(obs, qb.TypeTerm, qb.ObservationTerm)
	g.Add(obs, qb.DataSetPropTerm, rdf.NewIRI(gen.ExNS+"dataset/D1"))
	g.Add(obs, gen.DimRefArea, gen.GeoAthens)
	g.Add(obs, gen.DimRefPeriod, gen.Time2001)
	g.Add(obs, gen.MeasPopulation, rdf.NewInteger(5))
	vs := violationsFor(t, g, "IC-11")
	if len(vs) != 1 || vs[0].Node != obs {
		t.Errorf("IC-11: %v", vs)
	}
}

func TestIC12DuplicateObservation(t *testing.T) {
	g := qb.ExportGraph(gen.PaperExample())
	// Duplicate o11's coordinates in D1.
	obs := rdf.NewIRI("http://x/dupO11")
	g.Add(obs, qb.TypeTerm, qb.ObservationTerm)
	g.Add(obs, qb.DataSetPropTerm, rdf.NewIRI(gen.ExNS+"dataset/D1"))
	g.Add(obs, gen.DimRefArea, gen.GeoAthens)
	g.Add(obs, gen.DimRefPeriod, gen.Time2001)
	g.Add(obs, gen.DimSex, gen.SexTotal)
	g.Add(obs, gen.MeasPopulation, rdf.NewInteger(999))
	vs := violationsFor(t, g, "IC-12")
	nodes := map[string]bool{}
	for _, v := range vs {
		nodes[v.Node.Local()] = true
	}
	if !nodes["dupO11"] || !nodes["o11"] {
		t.Errorf("IC-12 must flag both duplicates: %v", vs)
	}
}

func TestIC14MissingMeasure(t *testing.T) {
	g := qb.ExportGraph(gen.PaperExample())
	obs := rdf.NewIRI("http://x/noMeasure")
	g.Add(obs, qb.TypeTerm, qb.ObservationTerm)
	g.Add(obs, qb.DataSetPropTerm, rdf.NewIRI(gen.ExNS+"dataset/D3"))
	g.Add(obs, gen.DimRefArea, gen.GeoRome)
	g.Add(obs, gen.DimRefPeriod, gen.Time2011)
	vs := violationsFor(t, g, "IC-14")
	if len(vs) != 1 || vs[0].Node != obs {
		t.Errorf("IC-14: %v", vs)
	}
}

func TestIC19ValueOutsideCodeList(t *testing.T) {
	g := qb.ExportGraph(gen.PaperExample())
	obs := rdf.NewIRI("http://x/badCode")
	g.Add(obs, qb.TypeTerm, qb.ObservationTerm)
	g.Add(obs, qb.DataSetPropTerm, rdf.NewIRI(gen.ExNS+"dataset/D3"))
	g.Add(obs, gen.DimRefArea, rdf.NewIRI("http://x/Atlantis"))
	g.Add(obs, gen.DimRefPeriod, gen.Time2011)
	g.Add(obs, gen.MeasUnemployment, rdf.NewDecimal(0.5))
	vs := violationsFor(t, g, "IC-19")
	if len(vs) != 1 || vs[0].Node != obs {
		t.Errorf("IC-19: %v", vs)
	}
}

func TestViolationStringAndConstraints(t *testing.T) {
	v := Violation{Constraint: "IC-1", Message: "msg", Node: rdf.NewIRI("http://x/n")}
	if !strings.Contains(v.String(), "IC-1") || !strings.Contains(v.String(), "http://x/n") {
		t.Errorf("String: %s", v)
	}
}
