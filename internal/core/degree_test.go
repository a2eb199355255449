package core

import (
	"fmt"
	"testing"

	"rdfcube/internal/gen"
	"rdfcube/internal/qb"
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
