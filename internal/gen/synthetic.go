package gen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"rdfcube/internal/hierarchy"
	"rdfcube/internal/qb"
	"rdfcube/internal/rdf"
)

// SyntheticConfig parameterizes the §4.2 scalability workload. The paper
// generated 2.5 M observations by fixing the dimensions, projecting the
// number of active lattice nodes from the real-world trend of Fig. 5(f),
// and populating the projected nodes evenly; Synthetic follows that recipe.
type SyntheticConfig struct {
	// N is the observation count. Zero means 2500000 (the paper's size).
	N int
	// Seed drives all random choices deterministically.
	Seed int64
}

// ProjectedCubes returns the target number of active lattice nodes for n
// observations: cubes(n) = 2 · n^0.55, fitted to Fig. 5(f)'s decreasing
// cubes-per-observation ratio.
func (cfg SyntheticConfig) ProjectedCubes(n int) int {
	c := int(2 * math.Pow(float64(n), 0.55))
	if c < 1 {
		c = 1
	}
	return c
}

// Synthetic generates the scalability corpus: a single dataset over four
// hierarchical dimensions (the real-world geography, time, sex and age
// lists) and one measure, with observations spread evenly over a projected
// number of lattice cubes.
func Synthetic(cfg SyntheticConfig) *qb.Corpus {
	n := cfg.N
	if n <= 0 {
		n = 2500000
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	full := RealWorldHierarchies()
	reg := hierarchy.NewRegistry()
	dims := []rdf.Term{DimRefArea, DimRefPeriod, DimSex, DimAge}
	lists := make([]*hierarchy.CodeList, len(dims))
	for i, d := range dims {
		lists[i] = full.Get(d)
		reg.Register(lists[i])
	}
	corpus := qb.NewCorpus(reg)

	// Enumerate candidate cube signatures in a deterministic shuffled
	// order, preferring deeper signatures first only through the shuffle.
	var sigs [][]int
	var build func(prefix []int, d int)
	build = func(prefix []int, d int) {
		if d == len(dims) {
			sigs = append(sigs, append([]int{}, prefix...))
			return
		}
		for l := 0; l <= lists[d].Depth(); l++ {
			build(append(prefix, l), d+1)
		}
	}
	build(nil, 0)
	sort.Slice(sigs, func(i, j int) bool { return lessIntSlice(sigs[i], sigs[j]) })
	rng.Shuffle(len(sigs), func(i, j int) { sigs[i], sigs[j] = sigs[j], sigs[i] })

	target := cfg.ProjectedCubes(n)
	if target > len(sigs) {
		target = len(sigs)
	}
	active := sigs[:target]

	ds := &qb.Dataset{
		URI:    exIRI("dataset/synthetic"),
		Schema: qb.NewSchema(dims, []rdf.Term{exIRI("measure/synthetic")}),
	}
	// Even population of the active cubes (§4.2: "we populated the lattice
	// nodes evenly").
	for i := 0; i < n; i++ {
		sig := active[i%len(active)]
		dimVals := make([]rdf.Term, len(ds.Schema.Dimensions))
		for di, dim := range ds.Schema.Dimensions {
			li := indexOfTerm(dims, dim)
			codes := lists[li].AtLevel(sig[li])
			dimVals[di] = codes[rng.Intn(len(codes))]
		}
		meas := []rdf.Term{rdf.NewInteger(int64(rng.Intn(1000000)))}
		uri := exIRI(fmt.Sprintf("obs/syn/%d", i))
		if _, err := ds.AddObservation(uri, dimVals, meas); err != nil {
			panic(fmt.Sprintf("gen: %v", err))
		}
	}
	corpus.AddDataset(ds)
	return corpus
}

func indexOfTerm(ts []rdf.Term, t rdf.Term) int {
	for i, x := range ts {
		if x == t {
			return i
		}
	}
	return -1
}

func lessIntSlice(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
