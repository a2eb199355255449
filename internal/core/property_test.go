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

// oneListCorpus builds a corpus over a single dimension whose code list
// has n codes below the root, code c under parentOf(c) (a smaller code, or
// -1 for the root), with one observation per code and one at the root.
func oneListCorpus(n int, parentOf func(c int) int) *qb.Corpus {
	dim := rdf.NewIRI("http://l/dim")
	codes := []rdf.Term{rdf.NewIRI("http://l/code/root")}
	cl := hierarchy.New(dim, codes[0])
	for c := 0; c < n; c++ {
		code := rdf.NewIRI(fmt.Sprintf("http://l/code/c%d", c))
		cl.Add(code, codes[parentOf(c)+1])
		codes = append(codes, code)
	}
	reg := hierarchy.NewRegistry()
	reg.Register(cl.MustSeal())
	ds := &qb.Dataset{
		URI:    rdf.NewIRI("http://l/ds"),
		Schema: qb.NewSchema([]rdf.Term{dim}, []rdf.Term{rdf.NewIRI("http://l/m")}),
	}
	for i, code := range codes {
		uri := rdf.NewIRI(fmt.Sprintf("http://l/obs/%d", i))
		if _, err := ds.AddObservation(uri, []rdf.Term{code}, []rdf.Term{rdf.NewInteger(int64(i))}); err != nil {
			panic(err)
		}
	}
	corpus := qb.NewCorpus(reg)
	corpus.AddDataset(ds)
	return corpus
}

// TestQuickBitvecMatchesDirect pins the two representations to each other:
// the occurrence-matrix sf test (baseline, clustering) and the code-row
// interval test (every lattice kernel) agree on every (i, j, d) of random
// corpora, of one single-chain code list eight levels deep and of one flat
// list (root and leaves).
func TestQuickBitvecMatchesDirect(t *testing.T) {
	agree := func(c *qb.Corpus) bool {
		s, err := NewSpace(c)
		if err != nil {
			return false
		}
		om := BuildOccurrenceMatrix(s)
		for i := 0; i < s.N(); i++ {
			for j := 0; j < s.N(); j++ {
				for d := 0; d < s.NumDims(); d++ {
					if om.ContainsDim(i, j, d) != s.DimContains(i, j, d) {
						t.Logf("obs %d, %d on dimension %d: OM says %v", i, j, d, om.ContainsDim(i, j, d))
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(func(seed int64) bool { return agree(randomCorpus(seed)) }, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
	if !agree(oneListCorpus(8, func(c int) int { return c - 1 })) {
		t.Error("single chain: the representations disagree")
	}
	if !agree(oneListCorpus(8, func(int) int { return -1 })) {
		t.Error("flat list: the representations disagree")
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

// splitCorpus copies c's schemas and code lists, keeps the first keep
// observations (in corpus order) in the copy and returns the others,
// re-pointed at the copied datasets, as the tail to insert. With keep 0
// the copy's datasets hold no observations at all.
func splitCorpus(c *qb.Corpus, keep int) (*qb.Corpus, []*qb.Observation) {
	base := qb.NewCorpus(c.Hierarchies)
	var tail []*qb.Observation
	idx := 0
	for _, ds := range c.Datasets {
		nds := &qb.Dataset{URI: ds.URI, Schema: ds.Schema}
		for _, o := range ds.Observations {
			no := *o
			no.Dataset = nds
			if idx < keep {
				nds.Observations = append(nds.Observations, &no)
			} else {
				tail = append(tail, &no)
			}
			idx++
		}
		base.AddDataset(nds)
	}
	return base, tail
}

// TestIncrementalMatchesBatch is "insert in any order ≡ batch": for every
// non-empty task mask, starting from half the corpus and from a space that
// holds schemas and code lists only, the rest is inserted one by one in a
// seeded shuffle, and the maintained sets must equal a batch baseline run
// over the final space and — so that a defect the baseline and the sweep
// share through emitPair cannot hide in their agreement — the definitional
// checkers of the Space.
func TestIncrementalMatchesBatch(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		c := randomCorpus(seed)
		n := len(c.Observations())
		for _, keep := range []int{n / 2, 0} {
			for tasks := Tasks(1); tasks <= TaskAll; tasks++ {
				base, tail := splitCorpus(c, keep)
				rand.New(rand.NewSource(seed)).Shuffle(len(tail), func(x, y int) { tail[x], tail[y] = tail[y], tail[x] })
				s, err := NewSpace(base)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				inc := NewIncremental(s, tasks)
				for _, o := range tail {
					if _, err := inc.Insert(o); err != nil {
						t.Fatalf("seed %d keep %d tasks %03b: insert: %v", seed, keep, tasks, err)
					}
				}
				inc.Res.Sort()

				// The incremental space now holds everything, in
				// insertion order.
				batch := NewResult()
				mustCompute(t, s, AlgorithmBaseline, Options{Tasks: tasks}, batch)
				batch.Sort()
				for _, set := range []struct {
					name       string
					got, batch []Pair
					on         bool
					holds      func(i, j int) bool
				}{
					{"S_F", inc.Res.FullSet, batch.FullSet, tasks.Has(TaskFull), s.FullContains},
					{"S_P", inc.Res.PartialSet, batch.PartialSet, tasks.Has(TaskPartial), s.PartialContains},
					{"S_C", inc.Res.ComplSet, batch.ComplSet, tasks.Has(TaskCompl),
						func(i, j int) bool { return i < j && s.Complementary(i, j) }},
				} {
					if !samePairs(set.batch, set.got) {
						t.Errorf("seed %d keep %d tasks %03b: %s differs: batch %d vs incremental %d",
							seed, keep, tasks, set.name, len(set.batch), len(set.got))
					}
					got := pairSet(set.got)
					if len(got) != len(set.got) {
						t.Errorf("seed %d keep %d tasks %03b: %s holds a pair twice", seed, keep, tasks, set.name)
					}
					for i := 0; i < s.N(); i++ {
						for j := 0; j < s.N(); j++ {
							if want := set.on && set.holds(i, j); got[Pair{i, j}] != want {
								t.Fatalf("seed %d keep %d tasks %03b: %s(%d, %d) = %v, the definition says %v",
									seed, keep, tasks, set.name, i, j, !want, want)
							}
						}
					}
				}
			}
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
