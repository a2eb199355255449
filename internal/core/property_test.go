package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"rdfcube/internal/gen"
	"rdfcube/internal/hierarchy"
	"rdfcube/internal/qb"
	"rdfcube/internal/rdf"
)

// randomCorpus builds a small random corpus: a random tree per dimension,
// a few datasets with random dimension subsets and one of two measures,
// and observations with random values.
func randomCorpus(seed int64) *qb.Corpus {
	r := rand.New(rand.NewSource(seed))
	nDims := 2 + r.Intn(3)
	reg := hierarchy.NewRegistry()
	var dims []rdf.Term
	for d := 0; d < nDims; d++ {
		dim := rdf.NewIRI(fmt.Sprintf("http://r/dim/%d", d))
		dims = append(dims, dim)
		root := rdf.NewIRI(fmt.Sprintf("http://r/code/%d/root", d))
		cl := hierarchy.New(dim, root)
		nodes := []rdf.Term{root}
		for c := 0; c < 3+r.Intn(10); c++ {
			code := rdf.NewIRI(fmt.Sprintf("http://r/code/%d/c%d", d, c))
			cl.Add(code, nodes[r.Intn(len(nodes))])
			nodes = append(nodes, code)
		}
		reg.Register(cl.MustSeal())
	}
	measures := []rdf.Term{rdf.NewIRI("http://r/m/a"), rdf.NewIRI("http://r/m/b")}

	corpus := qb.NewCorpus(reg)
	nDatasets := 1 + r.Intn(3)
	for ds := 0; ds < nDatasets; ds++ {
		// Random non-empty dimension subset.
		var schemaDims []rdf.Term
		for _, d := range dims {
			if r.Intn(3) > 0 {
				schemaDims = append(schemaDims, d)
			}
		}
		if len(schemaDims) == 0 {
			schemaDims = dims[:1]
		}
		m := measures[r.Intn(2)]
		dataset := &qb.Dataset{
			URI:    rdf.NewIRI(fmt.Sprintf("http://r/ds/%d", ds)),
			Schema: qb.NewSchema(schemaDims, []rdf.Term{m}),
		}
		n := 5 + r.Intn(25)
		for i := 0; i < n; i++ {
			vals := make([]rdf.Term, len(dataset.Schema.Dimensions))
			for vi, dim := range dataset.Schema.Dimensions {
				codes := reg.Get(dim).Codes()
				vals[vi] = codes[r.Intn(len(codes))]
			}
			uri := rdf.NewIRI(fmt.Sprintf("http://r/obs/%d/%d", ds, i))
			if _, err := dataset.AddObservation(uri, vals, []rdf.Term{rdf.NewInteger(int64(i))}); err != nil {
				panic(err)
			}
		}
		corpus.AddDataset(dataset)
	}
	return corpus
}

// TestQuickAlgorithmsAgree is the central equivalence property: on random
// corpora, every exact algorithm produces identical sorted relationship
// sets.
func TestQuickAlgorithmsAgree(t *testing.T) {
	f := func(seed int64) bool {
		c := randomCorpus(seed)
		s, err := NewSpace(c)
		if err != nil {
			return false
		}
		truth := newNaiveResult() // records emitted degrees, as res below
		mustCompute(t, s, AlgorithmBaseline, Options{Tasks: TaskAll}, truth)
		truth.Sort()
		for _, alg := range []Algorithm{AlgorithmCubeMasking, AlgorithmCubeMaskingPrefetch, AlgorithmParallel} {
			res := newNaiveResult()
			if err := Compute(s, alg, Options{}, res); err != nil {
				return false
			}
			res.Sort()
			if !samePairs(truth.FullSet, res.FullSet) ||
				!samePairs(truth.PartialSet, res.PartialSet) ||
				!samePairs(truth.ComplSet, res.ComplSet) {
				return false
			}
			for p, d := range truth.degree {
				if res.degree[p] != d {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func samePairs(a, b []Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestParityRandomSpacesAcrossWorkers is the differential oracle over
// random corpora: for every seed × worker count, the pooled baseline and
// pooled cubeMasking must reproduce the serial baseline's relationship
// sets exactly, and clustering (serial or pooled — itself pairwise
// identical) must emit a subset of the baseline's sets with its recall
// measured and reported. Run it under -race to also exercise the tape pool
// and counter flushes: go test -race ./internal/core -run Parity
func TestParityRandomSpacesAcrossWorkers(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		c := randomCorpus(seed)
		s, err := NewSpace(c)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		truth := newNaiveResult() // records emitted degrees, as res below
		mustCompute(t, s, AlgorithmBaseline, Options{Tasks: TaskAll}, truth)
		truth.Sort()
		tf, tp, tc := pairSet(truth.FullSet), pairSet(truth.PartialSet), pairSet(truth.ComplSet)

		for _, workers := range []int{1, 2, 8} {
			// Exact algorithms: identical sorted sets and degrees.
			for _, name := range []Algorithm{AlgorithmBaseline, AlgorithmParallel} {
				res := newNaiveResult()
				mustCompute(t, s, name, Options{Tasks: TaskAll, Workers: workers}, res)
				res.Sort()
				if !samePairs(truth.FullSet, res.FullSet) ||
					!samePairs(truth.PartialSet, res.PartialSet) ||
					!samePairs(truth.ComplSet, res.ComplSet) {
					t.Errorf("seed %d workers %d: %s diverged from baseline", seed, workers, name)
				}
				for p, d := range truth.degree {
					if res.degree[p] != d {
						t.Errorf("seed %d workers %d: %s degree(%v) = %v, want %v",
							seed, workers, name, p, res.degree[p], d)
					}
				}
			}

			// Clustering: lossy, so assert subset + measure recall. The
			// pinned seed keeps the assignment (and hence the recall)
			// deterministic across worker counts.
			opts := Options{Tasks: TaskAll, Workers: workers}
			opts.Clustering.Config.Seed = 11
			cres := NewResult()
			mustCompute(t, s, AlgorithmClustering, opts, cres)
			cres.Sort()
			for _, p := range cres.FullSet {
				if !tf[p] {
					t.Errorf("seed %d workers %d: clustering invented full pair %v", seed, workers, p)
				}
			}
			for _, p := range cres.PartialSet {
				if !tp[p] {
					t.Errorf("seed %d workers %d: clustering invented partial pair %v", seed, workers, p)
				}
			}
			for _, p := range cres.ComplSet {
				if !tc[p] {
					t.Errorf("seed %d workers %d: clustering invented compl pair %v", seed, workers, p)
				}
			}
			_, _, _, overall := Recall(truth.Result, cres)
			if overall < 0 || overall > 1 {
				t.Errorf("seed %d workers %d: recall %v out of range", seed, workers, overall)
			}
			if workers == 1 {
				t.Logf("seed %d: clustering recall %.3f (n=%d)", seed, overall, s.N())
			}
		}
	}
}

// TestQuickEmissionsMatchDefinitions checks every emitted pair against the
// definitional checkers, and that no definitional pair is missed — i.e.
// the baseline is sound and complete w.r.t. the canonical semantics.
func TestQuickEmissionsMatchDefinitions(t *testing.T) {
	f := func(seed int64) bool {
		c := randomCorpus(seed)
		s, err := NewSpace(c)
		if err != nil {
			return false
		}
		res := NewResult()
		mustCompute(t, s, AlgorithmBaseline, Options{Tasks: TaskAll}, res)
		full := pairSet(res.FullSet)
		partial := pairSet(res.PartialSet)
		compl := pairSet(res.ComplSet)
		for i := 0; i < s.N(); i++ {
			for j := 0; j < s.N(); j++ {
				if i == j {
					continue
				}
				if full[Pair{i, j}] != s.FullContains(i, j) {
					return false
				}
				if partial[Pair{i, j}] != s.PartialContains(i, j) {
					return false
				}
				a, b := i, j
				if a > b {
					a, b = b, a
				}
				if i < j && compl[Pair{a, b}] != s.Complementary(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestQuickBitvecMatchesDirect cross-checks the occurrence-matrix sf test
// against direct parent-chain ancestry on random corpora.
func TestQuickBitvecMatchesDirect(t *testing.T) {
	f := func(seed int64) bool {
		c := randomCorpus(seed)
		s, err := NewSpace(c)
		if err != nil {
			return false
		}
		om := BuildOccurrenceMatrix(s)
		r := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 50; trial++ {
			i, j := r.Intn(s.N()), r.Intn(s.N())
			d := r.Intn(s.NumDims())
			if om.ContainsDim(i, j, d) != s.DimContains(i, j, d) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestQuickContainmentDegreeSymmetry: deg(i,j) == |P| and deg(j,i) == |P|
// together imply identical value vectors (the complementarity criterion).
func TestQuickMutualFullImpliesEqual(t *testing.T) {
	f := func(seed int64) bool {
		c := randomCorpus(seed)
		s, err := NewSpace(c)
		if err != nil {
			return false
		}
		p := s.NumDims()
		for i := 0; i < s.N(); i++ {
			for j := i + 1; j < s.N(); j++ {
				mutual := s.ContainDegree(i, j) == p && s.ContainDegree(j, i) == p
				if mutual != s.Complementary(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestIncrementalMatchesBatch inserts observations one by one and compares
// the maintained sets against a batch recomputation.
func TestIncrementalMatchesBatch(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		c := randomCorpus(seed)
		all := c.Observations()
		if len(all) < 4 {
			continue
		}
		split := len(all) / 2

		// Base corpus: first half of each dataset (rebuild by index).
		baseCorpus := qb.NewCorpus(c.Hierarchies)
		idx := 0
		var tail []*qb.Observation
		for _, ds := range c.Datasets {
			nds := &qb.Dataset{URI: ds.URI, Schema: ds.Schema}
			for _, o := range ds.Observations {
				if idx < split {
					no := *o
					no.Dataset = nds
					nds.Observations = append(nds.Observations, &no)
				} else {
					no := *o
					no.Dataset = nds
					tail = append(tail, &no)
				}
				idx++
			}
			baseCorpus.AddDataset(nds)
		}

		s, err := NewSpace(baseCorpus)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		inc := NewIncremental(s, TaskAll)
		for _, o := range tail {
			if _, err := inc.Insert(o); err != nil {
				t.Fatalf("seed %d: insert: %v", seed, err)
			}
		}
		inc.Res.Sort()

		// Batch over the same final space (the incremental space already
		// contains everything, in its insertion order).
		batch := NewResult()
		mustCompute(t, inc.S, AlgorithmBaseline, Options{Tasks: TaskAll}, batch)
		batch.Sort()

		if !samePairs(batch.FullSet, inc.Res.FullSet) {
			t.Errorf("seed %d: S_F differs: batch %d vs incremental %d",
				seed, len(batch.FullSet), len(inc.Res.FullSet))
		}
		if !samePairs(batch.PartialSet, inc.Res.PartialSet) {
			t.Errorf("seed %d: S_P differs: batch %d vs incremental %d",
				seed, len(batch.PartialSet), len(inc.Res.PartialSet))
		}
		if !samePairs(batch.ComplSet, inc.Res.ComplSet) {
			t.Errorf("seed %d: S_C differs: batch %d vs incremental %d",
				seed, len(batch.ComplSet), len(inc.Res.ComplSet))
		}
	}
}

// TestSkylineInvariant: no skyline point is fully contained by any other
// observation, and every non-skyline point is.
func TestSkylineInvariant(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		c := randomCorpus(seed)
		s, err := NewSpace(c)
		if err != nil {
			t.Fatal(err)
		}
		sky := Skyline(s)
		inSky := map[int]bool{}
		for _, i := range sky {
			inSky[i] = true
		}
		for j := 0; j < s.N(); j++ {
			contained := false
			for i := 0; i < s.N() && !contained; i++ {
				if i != j && s.FullContains(i, j) {
					contained = true
				}
			}
			if contained == inSky[j] {
				t.Errorf("seed %d: obs %d: contained=%v but skyline=%v", seed, j, contained, inSky[j])
			}
		}
	}
}

// TestKDominanceMonotone: the k-dominant skyline shrinks (or stays equal)
// as k decreases, per Chan et al.'s containment lattice.
func TestKDominanceMonotone(t *testing.T) {
	c := gen.RealWorld(gen.RealWorldConfig{TotalObs: 200, Seed: 5})
	s, err := NewSpace(c)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1
	for k := s.NumDims(); k >= 1; k-- {
		n := len(KDominantSkyline(s, k))
		if prev >= 0 && n > prev {
			t.Errorf("k=%d: skyline grew from %d to %d", k, prev, n)
		}
		prev = n
	}
}

// TestHybridSubsetOfExact: the hybrid algorithm is exact outside oversized
// cubes, so its output is always a subset of cubeMasking's.
func TestHybridSubsetOfExact(t *testing.T) {
	c := gen.RealWorld(gen.RealWorldConfig{TotalObs: 500, Seed: 13})
	s, err := NewSpace(c)
	if err != nil {
		t.Fatal(err)
	}
	truth := NewResult()
	mustCompute(t, s, AlgorithmCubeMasking, Options{Tasks: TaskAll}, truth)

	res := NewResult()
	opts := Options{Hybrid: HybridOptions{MaxCubeSize: 8}}
	opts.Hybrid.Clustering.Config.Seed = 1
	if err := Compute(s, AlgorithmHybrid, opts, res); err != nil {
		t.Fatal(err)
	}
	tf, tp, tc := pairSet(truth.FullSet), pairSet(truth.PartialSet), pairSet(truth.ComplSet)
	for _, p := range res.FullSet {
		if !tf[p] {
			t.Errorf("hybrid invented full pair %v", p)
		}
	}
	for _, p := range res.PartialSet {
		if !tp[p] {
			t.Errorf("hybrid invented partial pair %v", p)
		}
	}
	for _, p := range res.ComplSet {
		if !tc[p] {
			t.Errorf("hybrid invented compl pair %v", p)
		}
	}
}

// TestAppendObservationErrors exercises the incremental error paths.
func TestAppendObservationErrors(t *testing.T) {
	c := gen.PaperExample()
	s, err := NewSpace(c)
	if err != nil {
		t.Fatal(err)
	}
	ds := c.Datasets[0]
	// Foreign code.
	bad := &qb.Observation{
		URI:     rdf.NewIRI("http://x/bad"),
		Dataset: ds,
		DimValues: []rdf.Term{
			rdf.NewIRI("http://x/not-a-code"), gen.Time2001, gen.SexTotal,
		},
		MeasureValues: []rdf.Term{rdf.NewInteger(1)},
	}
	if _, err := s.AppendObservation(bad); err == nil {
		t.Errorf("foreign code must fail")
	}
	// Foreign measure.
	foreignDS := &qb.Dataset{
		URI:    rdf.NewIRI("http://x/ds"),
		Schema: qb.NewSchema(ds.Schema.Dimensions, []rdf.Term{rdf.NewIRI("http://x/m")}),
	}
	bad2 := &qb.Observation{
		URI:           rdf.NewIRI("http://x/bad2"),
		Dataset:       foreignDS,
		DimValues:     []rdf.Term{gen.GeoAthens, gen.Time2001, gen.SexTotal},
		MeasureValues: []rdf.Term{rdf.NewInteger(1)},
	}
	if _, err := s.AppendObservation(bad2); err == nil {
		t.Errorf("foreign measure must fail")
	}
}

// TestMeasureLimit checks the 64-measure cap of the packed measure masks.
func TestMeasureLimit(t *testing.T) {
	reg := hierarchy.NewRegistry()
	dim := rdf.NewIRI("http://x/dim")
	cl := hierarchy.New(dim, rdf.NewIRI("http://x/root"))
	reg.Register(cl.MustSeal())
	measures := make([]rdf.Term, MaxMeasures+1)
	for i := range measures {
		measures[i] = rdf.NewIRI(fmt.Sprintf("http://x/m/%d", i))
	}
	c := qb.NewCorpus(reg)
	c.AddDataset(&qb.Dataset{
		URI:    rdf.NewIRI("http://x/ds"),
		Schema: qb.NewSchema([]rdf.Term{dim}, measures),
	})
	if _, err := NewSpace(c); err == nil {
		t.Errorf("more than %d measures must fail", MaxMeasures)
	}
}

// TestQuickPrefetchPathEquivalence exercises the prefetched sweep (which
// only engages without the partial task) against the baseline on random
// corpora for full containment and complementarity.
func TestQuickPrefetchPathEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		c := randomCorpus(seed)
		s, err := NewSpace(c)
		if err != nil {
			return false
		}
		tasks := TaskFull | TaskCompl
		truth := NewResult()
		mustCompute(t, s, AlgorithmBaseline, Options{Tasks: tasks}, truth)
		truth.Sort()
		res := NewResult()
		mustCompute(t, s, AlgorithmCubeMaskingPrefetch, Options{Tasks: tasks}, res)
		res.Sort()
		return samePairs(truth.FullSet, res.FullSet) && samePairs(truth.ComplSet, res.ComplSet)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickHybridIdenticalWhenCubesSmall: with MaxCubeSize larger than any
// cube, hybrid degenerates to exact cubeMasking.
func TestQuickHybridIdenticalWhenCubesSmall(t *testing.T) {
	f := func(seed int64) bool {
		c := randomCorpus(seed)
		s, err := NewSpace(c)
		if err != nil {
			return false
		}
		truth := NewResult()
		mustCompute(t, s, AlgorithmBaseline, Options{Tasks: TaskAll}, truth)
		truth.Sort()
		res := NewResult()
		mustCompute(t, s, AlgorithmHybrid, Options{Tasks: TaskAll, Hybrid: HybridOptions{MaxCubeSize: s.N() + 1}}, res)
		res.Sort()
		return samePairs(truth.FullSet, res.FullSet) &&
			samePairs(truth.PartialSet, res.PartialSet) &&
			samePairs(truth.ComplSet, res.ComplSet)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestKDominantFromResultMatchesDirect checks the materialized k-dominant
// skyline against the direct computation for every k.
func TestKDominantFromResultMatchesDirect(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		c := randomCorpus(seed)
		s, err := NewSpace(c)
		if err != nil {
			t.Fatal(err)
		}
		res := NewResult()
		mustCompute(t, s, AlgorithmBaseline, Options{Tasks: TaskAll}, res)
		for k := 1; k <= s.NumDims(); k++ {
			direct := KDominantSkyline(s, k)
			fromRes := KDominantSkylineFromResult(s, res, k)
			if len(direct) != len(fromRes) {
				t.Fatalf("seed %d k=%d: %d vs %d points", seed, k, len(direct), len(fromRes))
			}
			for i := range direct {
				if direct[i] != fromRes[i] {
					t.Fatalf("seed %d k=%d: point %d differs", seed, k, i)
				}
			}
		}
	}
}
