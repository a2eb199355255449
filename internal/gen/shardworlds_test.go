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

// TestSplitWorldClosure proves the property a per-dataset split needs:
// over a DisjointMeasures corpus, NO related pair links two datasets,
// so carving a world into single-dataset sub-shards can never separate
// a related pair across shards.
func TestSplitWorldClosure(t *testing.T) {
	for _, seed := range []int64{2, 9} {
		worlds, combined := ShardWorlds(ShardWorldsConfig{Seed: seed, ObsPerDataset: 50, DisjointMeasures: true})
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
					t.Fatalf("seed %d: cross-dataset %s pair: %s (%s) vs %s (%s); a split would cut it",
						seed, kind, s.Obs[p.A].URI.Value, da.Value, s.Obs[p.B].URI.Value, db.Value)
				}
			}
		}
		check("full", res.FullSet)
		check("partial", res.PartialSet)
		check("compl", res.ComplSet)

		// Every sub-shard compiles to the oracle's dimension universe
		// (stub schemas carry the missing dimensions), so partial degrees
		// normalize by the same |P|.
		for _, w := range worlds {
			subs, err := SplitWorld(w)
			if err != nil {
				t.Fatalf("seed %d: SplitWorld(%s): %v", seed, w.Name, err)
			}
			if len(subs) != 2 {
				t.Fatalf("seed %d: %s split into %d sub-shards, want 2", seed, w.Name, len(subs))
			}
			for _, sub := range subs {
				ss, err := core.NewSpace(sub.Corpus)
				if err != nil {
					t.Fatalf("seed %d: NewSpace(%s): %v", seed, sub.Name, err)
				}
				if len(ss.Dims) != len(s.Dims) {
					t.Fatalf("seed %d: sub-shard %s spans %d dims, oracle spans %d",
						seed, sub.Name, len(ss.Dims), len(s.Dims))
				}
				if len(sub.Datasets) != 1 {
					t.Fatalf("seed %d: sub-shard %s owns %d datasets, want 1", seed, sub.Name, len(sub.Datasets))
				}
			}
		}
	}
}

// TestSplitWorldUnionExact computes relationships per sub-shard and
// checks their union (keyed by URI, degrees included) equals the
// combined computation restricted to the split world's datasets —
// the sharded-serving exactness property, post-split.
func TestSplitWorldUnionExact(t *testing.T) {
	worlds, combined := ShardWorlds(ShardWorldsConfig{Seed: 5, ObsPerDataset: 40, DisjointMeasures: true})
	s, res, err := core.ComputeCorpusCtx(context.Background(), combined, core.AlgorithmBaseline, core.Options{})
	if err != nil {
		t.Fatalf("compute(combined): %v", err)
	}

	w := worlds[0]
	owned := map[string]bool{}
	for _, u := range w.Datasets {
		owned[u] = true
	}
	type rel struct{ kind, a, b string }
	want := map[rel]float64{}
	add := func(m map[rel]float64, kind string, sp *core.Space, pairs []core.Pair) {
		for _, p := range pairs {
			if sp == s && !owned[sp.Obs[p.A].Dataset.URI.Value] {
				continue
			}
			k := rel{kind, sp.Obs[p.A].URI.Value, sp.Obs[p.B].URI.Value}
			if kind == "partial" {
				m[k] = sp.Degree(p.A, p.B) // each space derives its own
			} else {
				m[k] = 1
			}
		}
	}
	add(want, "full", s, res.FullSet)
	add(want, "partial", s, res.PartialSet)
	add(want, "compl", s, res.ComplSet)

	subs, err := SplitWorld(w)
	if err != nil {
		t.Fatalf("SplitWorld: %v", err)
	}
	got := map[rel]float64{}
	for _, sub := range subs {
		ss, sres, err := core.ComputeCorpusCtx(context.Background(), sub.Corpus, core.AlgorithmBaseline, core.Options{})
		if err != nil {
			t.Fatalf("compute(%s): %v", sub.Name, err)
		}
		add(got, "full", ss, sres.FullSet)
		add(got, "partial", ss, sres.PartialSet)
		add(got, "compl", ss, sres.ComplSet)
	}
	if len(got) != len(want) {
		t.Fatalf("union has %d relations, oracle restriction has %d", len(got), len(want))
	}
	for k, d := range want {
		gd, ok := got[k]
		if !ok {
			t.Fatalf("missing %s %s -> %s in split union", k.kind, k.a, k.b)
		}
		if gd != d {
			t.Fatalf("%s %s -> %s: degree %v vs oracle %v", k.kind, k.a, k.b, gd, d)
		}
	}
}

// TestSplitWorldRejectsSharedMeasures: the default ShardWorlds shape
// shares one measure per group, so containment CAN link a group's two
// datasets and a split must be refused.
func TestSplitWorldRejectsSharedMeasures(t *testing.T) {
	worlds, _ := ShardWorlds(ShardWorldsConfig{Seed: 1})
	if _, err := SplitWorld(worlds[0]); err == nil {
		t.Fatalf("SplitWorld accepted a shared-measure world; the split could cut containment pairs")
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
