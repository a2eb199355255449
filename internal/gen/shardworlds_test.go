package gen

import (
	"context"
	"strings"
	"testing"

	"rdfcube/internal/core"
)

// groupOf maps an observation index in the combined space to its dataset
// group via the obs/shard/gN/ URI prefix the generator stamps.
func groupOf(t *testing.T, s *core.Space, i int) string {
	t.Helper()
	uri := s.Obs[i].URI.Value
	rest, ok := strings.CutPrefix(uri, ExNS+"obs/shard/")
	if !ok {
		t.Fatalf("obs %d has unexpected URI %q", i, uri)
	}
	g, _, ok := strings.Cut(rest, "/")
	if !ok {
		t.Fatalf("obs %d has unexpected URI %q", i, uri)
	}
	return g
}

// TestShardWorldsClosure proves the property the cubegate chaos harness
// depends on: computing relationships over the combined corpus yields
// zero cross-group pairs, so per-shard computation loses nothing.
func TestShardWorldsClosure(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		worlds, combined := ShardWorlds(ShardWorldsConfig{Seed: seed, ObsPerDataset: 60})
		if len(worlds) != 3 {
			t.Fatalf("seed %d: got %d worlds, want 3", seed, len(worlds))
		}
		s, res, err := core.ComputeCorpusCtx(context.Background(), combined, core.AlgorithmBaseline, core.Options{})
		if err != nil {
			t.Fatalf("seed %d: compute: %v", seed, err)
		}

		full, partial, compl := res.Counts()
		if full == 0 || partial == 0 || compl == 0 {
			t.Errorf("seed %d: degenerate corpus: full=%d partial=%d compl=%d; every relationship type must occur intra-group",
				seed, full, partial, compl)
		}

		check := func(kind string, pairs []core.Pair) {
			for _, p := range pairs {
				ga, gb := groupOf(t, s, p.A), groupOf(t, s, p.B)
				if ga != gb {
					t.Fatalf("seed %d: cross-group %s pair: obs %d (%s) vs obs %d (%s)",
						seed, kind, p.A, ga, p.B, gb)
				}
			}
		}
		check("full", res.FullSet)
		check("partial", res.PartialSet)
		check("compl", res.ComplSet)
	}
}

// TestShardWorldsEqualDimensionUniverse asserts every group's corpus
// compiles to the same global dimension set as the combined corpus —
// the denominator of partial-containment degrees, which must agree for
// sharded degrees to be byte-equal to the oracle's.
func TestShardWorldsEqualDimensionUniverse(t *testing.T) {
	worlds, combined := ShardWorlds(ShardWorldsConfig{Seed: 3})
	want, err := core.NewSpace(combined)
	if err != nil {
		t.Fatalf("NewSpace(combined): %v", err)
	}
	for _, w := range worlds {
		s, err := core.NewSpace(w.Corpus)
		if err != nil {
			t.Fatalf("NewSpace(%s): %v", w.Name, err)
		}
		if len(s.Dims) != len(want.Dims) {
			t.Fatalf("group %s spans %d dims, combined spans %d", w.Name, len(s.Dims), len(want.Dims))
		}
		for i := range s.Dims {
			if s.Dims[i] != want.Dims[i] {
				t.Fatalf("group %s dim %d = %s, combined has %s",
					w.Name, i, s.Dims[i].Value, want.Dims[i].Value)
			}
		}
	}
}

// TestShardWorldsDisjointMeasuresClosure proves the property moving one
// dataset at a time between shards needs: over a DisjointMeasures corpus,
// NO related pair links two datasets.
func TestShardWorldsDisjointMeasuresClosure(t *testing.T) {
	for _, seed := range []int64{2, 9} {
		_, combined := ShardWorlds(ShardWorldsConfig{Seed: seed, ObsPerDataset: 50, DisjointMeasures: true})
		s, res, err := core.ComputeCorpusCtx(context.Background(), combined, core.AlgorithmBaseline, core.Options{})
		if err != nil {
			t.Fatalf("seed %d: compute: %v", seed, err)
		}
		full, partial, compl := res.Counts()
		if full == 0 || partial == 0 || compl == 0 {
			t.Errorf("seed %d: degenerate corpus: full=%d partial=%d compl=%d", seed, full, partial, compl)
		}
		check := func(kind string, pairs []core.Pair) {
			for _, p := range pairs {
				da := s.Obs[p.A].Dataset.URI
				db := s.Obs[p.B].Dataset.URI
				if da != db {
					t.Fatalf("seed %d: cross-dataset %s pair: %s (%s) vs %s (%s)",
						seed, kind, s.Obs[p.A].URI.Value, da.Value, s.Obs[p.B].URI.Value, db.Value)
				}
			}
		}
		check("full", res.FullSet)
		check("partial", res.PartialSet)
		check("compl", res.ComplSet)
	}
}

// TestShardWorldsDeterministic pins that equal seeds reproduce the corpus
// exactly and the values sit strictly below every hierarchy root.
func TestShardWorldsDeterministic(t *testing.T) {
	w1, c1 := ShardWorlds(ShardWorldsConfig{Seed: 11, ObsPerDataset: 20})
	w2, c2 := ShardWorlds(ShardWorldsConfig{Seed: 11, ObsPerDataset: 20})
	if len(w1) != len(w2) {
		t.Fatalf("world counts differ: %d vs %d", len(w1), len(w2))
	}
	for di, ds := range c1.Datasets {
		other := c2.Datasets[di]
		if ds.URI != other.URI || len(ds.Observations) != len(other.Observations) {
			t.Fatalf("dataset %d differs between runs", di)
		}
		for oi, o := range ds.Observations {
			oo := other.Observations[oi]
			if o.URI != oo.URI {
				t.Fatalf("obs %d/%d URI differs", di, oi)
			}
			for vi, v := range o.DimValues {
				if v != oo.DimValues[vi] {
					t.Fatalf("obs %s dim %d differs between runs", o.URI.Value, vi)
				}
				dim := ds.Schema.Dimensions[vi]
				if root := c1.Hierarchies.Get(dim).Root; v == root {
					t.Fatalf("obs %s has root value on %s; roots must never appear", o.URI.Value, dim.Value)
				}
			}
			for mi, m := range o.MeasureValues {
				if m != oo.MeasureValues[mi] {
					t.Fatalf("obs %s measure differs between runs", o.URI.Value)
				}
			}
		}
	}
}
