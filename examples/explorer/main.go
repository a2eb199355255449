// Explorer demonstrates online exploration over materialized relationships
// — the paper's §1 motivation that "materialization of these relationships
// helps speed up online exploration" and "quantif[ies] the degree of
// relatedness between data sources".
//
// It builds the Table-4 replica, materializes the relationship index, and
// then (a) navigates the containment DAG from a skyline point downwards,
// and (b) prints the dataset-pair relatedness ranking that tells the
// analyst which sources combine best.
//
// Run with: go run ./examples/explorer
package main

import (
	"fmt"
	"log"

	rdfcube "rdfcube"
	"rdfcube/internal/core"
)

func main() {
	corpus := rdfcube.GenerateRealWorld(2500, 7)
	comp, err := rdfcube.Compute(corpus, rdfcube.CubeMasking, rdfcube.Options{})
	if err != nil {
		log.Fatal(err)
	}
	space := comp.Space
	ix, err := core.BuildIndex(space, core.AlgorithmCubeMasking, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	st := ix.Stats()
	fmt.Printf("index over %d observations: %d full, %d partial, %d complementary pairs; skyline %d\n\n",
		st.Observations, st.FullPairs, st.PartialPairs, st.ComplPairs, st.SkylineSize)

	describe := func(i int) string {
		o := space.Obs[i]
		out := fmt.Sprintf("%-14s", o.URI.Local())
		for _, d := range o.Dataset.Schema.Dimensions {
			out += " " + o.Value(d).Local()
		}
		return out
	}

	// (a) navigate: find a top-level observation with details below it and
	// drill down two levels.
	start := -1
	for _, i := range ix.TopLevel() {
		if len(ix.DrillDown(i)) > 0 {
			start = i
			break
		}
	}
	if start < 0 {
		fmt.Println("no navigable skyline point in this sample; rerun with another seed")
	} else {
		fmt.Println("drill-down from a skyline observation:")
		fmt.Println("  " + describe(start))
		for li, level := 0, ix.DrillDown(start); li < 2 && len(level) > 0; li++ {
			next := []int{}
			for n, j := range level {
				if n >= 3 {
					fmt.Printf("  %s ... (%d more)\n", indent(li+1), len(level)-n)
					break
				}
				fmt.Println("  " + indent(li+1) + describe(j))
				next = append(next, ix.DrillDown(j)...)
			}
			level = next
		}
	}

	// (b) source relatedness: which dataset pairs combine best?
	rel := core.ComputeRelatedness(space, comp.Result)
	fmt.Println("\nmost related dataset pairs (normalized score):")
	for i, e := range rel.MostRelated() {
		if i >= 6 {
			break
		}
		fmt.Println("  " + e.String())
	}
	fmt.Println("\nrelatedness score matrix:")
	fmt.Print(rel.Table())
}

func indent(n int) string {
	out := ""
	for i := 0; i < n; i++ {
		out += "    "
	}
	return out
}
