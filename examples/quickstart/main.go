// Quickstart: build two small statistical datasets over a shared
// geography hierarchy, compute all containment and complementarity
// relationships with cubeMasking, and print them.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	rdfcube "rdfcube"
)

func main() {
	// 1. A shared hierarchical code list for the geography dimension:
	//    World → Europe → {Greece → Athens, Italy → Rome}.
	geo := rdfcube.NewIRI("http://stats.example/dim/geo")
	year := rdfcube.NewIRI("http://stats.example/dim/year")

	code := func(s string) rdfcube.Term { return rdfcube.NewIRI("http://stats.example/code/" + s) }
	geoList := rdfcube.NewCodeList(geo, code("World"))
	geoList.Add(code("Europe"), code("World"))
	geoList.Add(code("Greece"), code("Europe"))
	geoList.Add(code("Italy"), code("Europe"))
	geoList.Add(code("Athens"), code("Greece"))
	geoList.Add(code("Rome"), code("Italy"))
	geoList.MustSeal()

	yearList := rdfcube.NewCodeList(year, code("AllYears"))
	yearList.Add(code("Y2014"), code("AllYears"))
	yearList.Add(code("Y2015"), code("AllYears"))
	yearList.MustSeal()

	reg := rdfcube.NewRegistry()
	reg.Register(geoList)
	reg.Register(yearList)

	// 2. Two datasets sharing the dimensions: one measures population,
	//    the other unemployment.
	pop := rdfcube.NewIRI("http://stats.example/measure/population")
	unemp := rdfcube.NewIRI("http://stats.example/measure/unemployment")

	corpus := rdfcube.NewCorpus(reg)
	popDS := &rdfcube.Dataset{
		URI:    rdfcube.NewIRI("http://stats.example/dataset/pop"),
		Schema: rdfcube.NewSchema([]rdfcube.Term{geo, year}, []rdfcube.Term{pop}),
	}
	unempDS := &rdfcube.Dataset{
		URI:    rdfcube.NewIRI("http://stats.example/dataset/unemp"),
		Schema: rdfcube.NewSchema([]rdfcube.Term{geo, year}, []rdfcube.Term{unemp}),
	}

	obs := func(ds *rdfcube.Dataset, name string, g, y rdfcube.Term, v int64) {
		_, err := ds.AddObservation(
			rdfcube.NewIRI("http://stats.example/obs/"+name),
			[]rdfcube.Term{g, y}, // aligned with the schema's sorted dimensions
			[]rdfcube.Term{rdfcube.NewInteger(v)},
		)
		if err != nil {
			log.Fatal(err)
		}
	}
	// Note: NewSchema sorts dimensions by IRI; here geo < year.
	obs(popDS, "popGreece2015", code("Greece"), code("Y2015"), 10_800_000)
	obs(popDS, "popAthens2015", code("Athens"), code("Y2015"), 3_090_000)
	obs(popDS, "popItaly2014", code("Italy"), code("Y2014"), 60_700_000)
	obs(unempDS, "unempGreece2015", code("Greece"), code("Y2015"), 24)
	obs(unempDS, "unempRome2014", code("Rome"), code("Y2014"), 11)
	corpus.AddDataset(popDS)
	corpus.AddDataset(unempDS)

	if err := corpus.Validate(); err != nil {
		log.Fatal(err)
	}

	// 3. Compute every relationship with the exact lattice-pruned
	//    algorithm and print the three sets.
	comp, err := rdfcube.Compute(corpus, rdfcube.CubeMasking, rdfcube.Options{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Full containment (aggregate → detail):")
	for _, p := range comp.Result.FullSet {
		fmt.Printf("  %s contains %s\n", comp.Obs(p.A).URI.Local(), comp.Obs(p.B).URI.Local())
	}
	fmt.Println("Partial containment (containing dimensions / all dimensions):")
	for _, p := range comp.Result.PartialSet {
		fmt.Printf("  %s partially contains %s (degree %.2f)\n",
			comp.Obs(p.A).URI.Local(), comp.Obs(p.B).URI.Local(), comp.Space.Degree(p.A, p.B))
	}
	fmt.Println("Complementarity (same point, combinable measures):")
	for _, p := range comp.Result.ComplSet {
		fmt.Printf("  %s complements %s\n", comp.Obs(p.A).URI.Local(), comp.Obs(p.B).URI.Local())
	}

	// 4. Export the relationships as RDF (qbr: vocabulary).
	fmt.Println("\nRDF export:")
	fmt.Print(rdfcube.ExportRelationships(comp))
}
