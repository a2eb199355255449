package core

import (
	"fmt"
	"math/rand"
	"testing"

	"rdfcube/internal/gen"
	"rdfcube/internal/hierarchy"
	"rdfcube/internal/qb"
	"rdfcube/internal/rdf"
)

// checkDerivedDegrees asserts that every degree rec saw emitted is the one
// Space.Degree derives for that pair — the normalised OCM cell, with exact
// float equality: both sides are the same division.
func checkDerivedDegrees(t *testing.T, what string, s *Space, rec naiveResult) {
	t.Helper()
	if len(rec.degree) == 0 {
		t.Errorf("%s: degenerate fixture, no partial pair emitted", what)
	}
	p := s.NumDims()
	for pr, got := range rec.degree {
		deg := s.ContainDegree(pr.A, pr.B)
		if want := float64(deg) / float64(p); got != want || s.Degree(pr.A, pr.B) != want {
			t.Fatalf("%s: pair %v emitted with degree %v, Space.Degree says %v, the OCM cell is %d/%d = %v",
				what, pr, got, s.Degree(pr.A, pr.B), deg, p, want)
		}
	}
}

// holdOut splits c into a base corpus and every k-th of its observations
// (spread over every dataset; k = 1 holds out all of them, in Space.Obs
// order), re-homed onto the base corpus's datasets so they can be inserted
// into a space compiled from it.
func holdOut(c *qb.Corpus, k int) (base *qb.Corpus, tail []*qb.Observation) {
	base = qb.NewCorpus(c.Hierarchies)
	idx := 0
	for _, ds := range c.Datasets {
		nds := &qb.Dataset{URI: ds.URI, Schema: ds.Schema}
		for _, o := range ds.Observations {
			no := *o
			no.Dataset = nds
			if idx%k == k-1 {
				tail = append(tail, &no)
			} else {
				nds.Observations = append(nds.Observations, &no)
			}
			idx++
		}
		base.AddDataset(nds)
	}
	return base, tail
}

// TestDerivedDegreeLicence is what licenses every reader to derive a
// partial pair's degree from the compiled Space, and Result to store none:
// whichever path emits the pair — any of the six algorithms, serial or
// pooled, or Incremental.Insert — the degree it emits equals
// float64(ContainDegree(a, b))/float64(NumDims()) = Space.Degree(a, b) bit
// for bit.
func TestDerivedDegreeLicence(t *testing.T) {
	_, shardWorlds := gen.ShardWorlds(gen.ShardWorldsConfig{ObsPerDataset: 100, Seed: 5})
	corpora := map[string]*qb.Corpus{
		"realworld":   gen.RealWorld(gen.RealWorldConfig{TotalObs: 600, Seed: 2}),
		"shardworlds": shardWorlds,
	}
	for name, c := range corpora {
		s, err := NewSpace(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range Algorithms() {
			for _, workers := range []int{1, 2} {
				rec := newNaiveResult()
				mustCompute(t, s, alg, bulkTestOptions(workers), rec)
				checkDerivedDegrees(t, fmt.Sprintf("%s %s workers=%d", name, alg, workers), s, rec)
			}
		}

		base, tail := holdOut(c, 3)
		if len(tail) < 200 {
			t.Fatalf("%s: only %d observations held out, want ≥ 200", name, len(tail))
		}
		bs, err := NewSpace(base)
		if err != nil {
			t.Fatal(err)
		}
		inc := NewIncremental(bs, TaskAll)
		grown := len(inc.Res.PartialSet)
		// rec writes through to inc.Res, so the maintained state is what
		// Insert would have left; it records the inserts' emissions only.
		rec := naiveResult{inc.Res, map[Pair]float64{}}
		for _, o := range tail {
			if _, err := inc.insert(o, rec); err != nil {
				t.Fatalf("%s: insert %s: %v", name, o.URI, err)
			}
		}
		if got := len(inc.Res.PartialSet) - grown; got == 0 || got != len(rec.degree) {
			t.Errorf("%s: %d inserts added %d partial pairs and emitted %d degrees", name, len(tail), got, len(rec.degree))
		}
		checkDerivedDegrees(t, name+" inserts", inc.S, rec)
		checkNoDegreeTable(t, name+" after inserts", inc.Res)
	}
}

// checkContainDegrees asserts that the one-row-against-a-list kernel
// equals ContainDegree on every ordered pair of s, in both directions. Row
// i runs against every observation in a shuffled order with repeats (the
// kernel must not rely on a sorted list), and against an empty list. It
// returns the largest degree it saw.
func checkContainDegrees(t *testing.T, what string, s *Space, seed int64) int32 {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	js := make([]int32, 0, s.N()+s.N()/4)
	for j := 0; j < s.N(); j++ {
		js = append(js, int32(j))
	}
	for k := 0; k < s.N()/4; k++ {
		js = append(js, int32(r.Intn(s.N())))
	}
	r.Shuffle(len(js), func(a, b int) { js[a], js[b] = js[b], js[a] })
	deg := make([]int32, len(js))
	var top int32
	for i := 0; i < s.N(); i++ {
		for _, iContains := range []bool{true, false} {
			for k := range deg {
				deg[k] = -1 // the kernel overwrites, it does not accumulate
			}
			s.ContainDegrees(i, js, iContains, deg)
			for k, j := range js {
				want := s.ContainDegree(i, int(j))
				if !iContains {
					want = s.ContainDegree(int(j), i)
				}
				if deg[k] != int32(want) {
					t.Fatalf("%s: ContainDegrees(%d, …, iContains=%v)[%d] (j = %d) = %d, ContainDegree says %d",
						what, i, iContains, k, j, deg[k], want)
				}
				top = max(top, deg[k])
			}
			s.ContainDegrees(i, nil, iContains, nil)
			s.ContainDegrees(i, js[:0], iContains, deg[:0])
		}
	}
	return top
}

// hasRootValue reports whether some observation of s sits at the root on
// some dimension — the rank an absent dimension compiles to.
func hasRootValue(s *Space) bool {
	for i := 0; i < s.N(); i++ {
		for d := 0; d < s.NumDims(); d++ {
			if s.ValueIndex(i, d) == 0 {
				return true
			}
		}
	}
	return false
}

// TestContainDegreesMatchesPairwise: Space.ContainDegrees, the kernel the
// /v1/related read derives its partial degrees with, equals ContainDegree
// on every ordered pair, in both directions, on spaces compiled by
// NewSpace and then grown by AppendObservation.
func TestContainDegreesMatchesPairwise(t *testing.T) {
	grown := func(t *testing.T, c *qb.Corpus) *Space {
		t.Helper()
		base, tail := holdOut(c, 3)
		s, err := NewSpace(base)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range tail {
			if _, err := s.AppendObservation(o); err != nil {
				t.Fatalf("append %s: %v", o.URI, err)
			}
		}
		if len(tail) == 0 {
			t.Fatal("degenerate fixture: nothing appended")
		}
		return s
	}
	for _, seed := range []int64{1, 2} {
		s := grown(t, gen.RealWorld(gen.RealWorldConfig{TotalObs: 600, Seed: seed}))
		if !hasRootValue(s) {
			t.Fatalf("realworld seed %d: no observation at a root rank", seed)
		}
		checkContainDegrees(t, fmt.Sprintf("realworld seed %d", seed), s, seed)
	}
	roots := 0
	for seed := int64(1); seed <= 40; seed++ {
		s := grown(t, randomCorpus(seed))
		if hasRootValue(s) {
			roots++
		}
		checkContainDegrees(t, fmt.Sprintf("random seed %d", seed), s, seed)
	}
	if roots == 0 {
		t.Fatal("no random corpus has an observation at a root rank")
	}

	// |P| is not capped, so neither is a degree: over 300 dimensions an
	// all-root observation contains every other one at degree 300, which
	// a uint8 counter would report as 44.
	wide := wideCorpus(300)
	s := grown(t, wide)
	if top := checkContainDegrees(t, "300 dimensions", s, 3); top <= 255 {
		t.Fatalf("300 dimensions: largest degree %d, want one above 255", top)
	}
}

// wideCorpus builds a corpus over p dimensions, each a root with two
// children. Dataset "all" uses every dimension and holds an all-root
// observation first; dataset "half" uses every other dimension, so the
// rest compile to the root.
func wideCorpus(p int) *qb.Corpus {
	r := rand.New(rand.NewSource(int64(p)))
	reg := hierarchy.NewRegistry()
	var dims, half []rdf.Term
	for d := 0; d < p; d++ {
		dim := rdf.NewIRI(fmt.Sprintf("http://w/dim/%d", d))
		cl := hierarchy.New(dim, rdf.NewIRI(fmt.Sprintf("http://w/code/%d/root", d)))
		for k := 0; k < 2; k++ {
			cl.Add(rdf.NewIRI(fmt.Sprintf("http://w/code/%d/c%d", d, k)), cl.Root)
		}
		reg.Register(cl.MustSeal())
		dims = append(dims, dim)
		if d%2 == 0 {
			half = append(half, dim)
		}
	}
	measure := []rdf.Term{rdf.NewIRI("http://w/m")}
	corpus := qb.NewCorpus(reg)
	for _, sc := range []struct {
		name string
		dims []rdf.Term
	}{{"all", dims}, {"half", half}} {
		ds := &qb.Dataset{URI: rdf.NewIRI("http://w/ds/" + sc.name), Schema: qb.NewSchema(sc.dims, measure)}
		for i := 0; i < 12; i++ {
			vals := make([]rdf.Term, len(ds.Schema.Dimensions))
			for k, dim := range ds.Schema.Dimensions {
				codes := reg.Get(dim).Codes()
				vals[k] = codes[0]
				if i > 0 {
					vals[k] = codes[r.Intn(len(codes))]
				}
			}
			uri := rdf.NewIRI(fmt.Sprintf("http://w/obs/%s/%d", sc.name, i))
			if _, err := ds.AddObservation(uri, vals, []rdf.Term{rdf.NewInteger(int64(i))}); err != nil {
				panic(err)
			}
		}
		corpus.AddDataset(ds)
	}
	return corpus
}
