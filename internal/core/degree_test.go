package core

import (
	"fmt"
	"testing"

	"rdfcube/internal/gen"
	"rdfcube/internal/qb"
)

// checkDerivedDegrees asserts, for every partial pair of res, that the
// stored degree is the normalised OCM cell read off the space — with
// exact float equality: both sides are the same division.
func checkDerivedDegrees(t *testing.T, what string, s *Space, res *Result) {
	t.Helper()
	if len(res.PartialSet) == 0 {
		t.Errorf("%s: degenerate fixture, no partial pairs", what)
	}
	p := s.NumDims()
	for _, pr := range res.PartialSet {
		deg := s.ContainDegree(pr.A, pr.B)
		if got, want := res.PartialDegree[pr], float64(deg)/float64(p); got != want {
			t.Fatalf("%s: PartialDegree[%v] = %v, the space derives %d/%d = %v", what, pr, got, deg, p, want)
		}
	}
}

// holdOutEveryThird splits c into a base corpus and the held-out third of
// its observations (spread over every dataset), re-homed onto the base
// corpus's datasets so they can be inserted into a space compiled from it.
func holdOutEveryThird(c *qb.Corpus) (base *qb.Corpus, tail []*qb.Observation) {
	base = qb.NewCorpus(c.Hierarchies)
	idx := 0
	for _, ds := range c.Datasets {
		nds := &qb.Dataset{URI: ds.URI, Schema: ds.Schema}
		for _, o := range ds.Observations {
			no := *o
			no.Dataset = nds
			if idx%3 == 2 {
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

// TestDerivedDegreeLicence is what licenses a reader to derive a partial
// pair's degree from the compiled Space instead of looking it up in
// Result.PartialDegree (the serving layer's /v1/related does): whichever
// path produced the pair — any of the six algorithms, serial or pooled, or
// Incremental.Insert — the stored degree equals
// float64(ContainDegree(a, b))/float64(NumDims()) bit for bit.
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
				res := NewResult()
				mustCompute(t, s, alg, bulkTestOptions(workers), res)
				checkDerivedDegrees(t, fmt.Sprintf("%s %s workers=%d", name, alg, workers), s, res)
			}
		}

		base, tail := holdOutEveryThird(c)
		if len(tail) < 200 {
			t.Fatalf("%s: only %d observations held out, want ≥ 200", name, len(tail))
		}
		bs, err := NewSpace(base)
		if err != nil {
			t.Fatal(err)
		}
		inc := NewIncremental(bs, TaskAll)
		grown := len(inc.Res.PartialSet)
		for _, o := range tail {
			if _, err := inc.Insert(o); err != nil {
				t.Fatalf("%s: insert %s: %v", name, o.URI, err)
			}
		}
		if len(inc.Res.PartialSet) == grown {
			t.Errorf("%s: %d inserts added no partial pair", name, len(tail))
		}
		checkDerivedDegrees(t, name+" after inserts", inc.S, inc.Res)
	}
}
