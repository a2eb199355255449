package gen

import (
	"fmt"
	"math/rand"

	"rdfcube/internal/hierarchy"
	"rdfcube/internal/qb"
	"rdfcube/internal/rdf"
)

// ShardWorlds generates a corpus purpose-built for sharding by dataset:
// three dataset groups that are provably RELATIONSHIP-CLOSED — no full,
// partial or complementarity pair ever crosses a group boundary — while
// every group's datasets span the SAME dimension universe, so a space
// compiled over one group normalizes partial-containment degrees by the
// same denominator as a space compiled over the whole corpus. Together
// those two properties make sharded serving exact: the union of
// per-shard answers equals the unsharded answer, degree bytes included.
// The cubegate chaos harness leans on this to compare a partitioned
// three-shard world against an unsharded oracle byte for byte.
//
// Closure is by construction, not by luck:
//
//   - Measures are disjoint across groups (group g's datasets share the
//     single measure ex:measure/shard/Mg and no other). Full and partial
//     containment both require a shared measure (Definition 4 condition
//     3), so neither can cross a group boundary.
//   - Complementarity requires mutual full containment in every
//     dimension, i.e. value equality everywhere. Every pair of datasets
//     from different groups has INCOMPARABLE variable-dimension sets —
//     each schema carries a variable dimension the other lacks — and
//     values are drawn strictly BELOW the hierarchy roots, so the
//     observation with the dimension in its schema sits at a non-root
//     code while the other sits at the root: never equal, in either
//     direction.
//
// The construction uses four variable dimensions (sex, unit, age,
// citizenship). Group g's two datasets carry complementary 2-subsets
// (pair g and its complement): the six subsets are pairwise distinct
// across all groups (incomparability), yet each group's union covers
// all four variables, so every group compiles to the same 6-dimension
// universe as the combined corpus. Every dataset also carries the
// refArea and refPeriod dimensions so answers exercise deep
// hierarchies.
//
// Random independent draws essentially never align into full
// containment or complementarity, so the generator plants them: a
// fraction of observations are ROLLUPS (an earlier observation's values
// lifted one hierarchy level where possible, still below root — a
// guaranteed full-containment pair) and TWINS (an earlier observation's
// values copied exactly — a guaranteed complementarity pair). Both stay
// inside one dataset, so the planted pairs are intra-group by
// construction and the closure argument above is untouched.
type ShardWorldsConfig struct {
	// ObsPerDataset scales each dataset; zero means 40.
	ObsPerDataset int
	// Seed drives all random choices deterministically.
	Seed int64
	// DisjointMeasures gives every DATASET its own measure instead of a
	// per-group shared one. The closure argument above only needs
	// measures disjoint across groups, but a shared group measure links
	// the group's two datasets by full/partial containment, and a
	// per-dataset split cuts those pairs across shards. With
	// DisjointMeasures no relationship of any kind links two datasets
	// anywhere in the corpus (containment lacks a shared measure;
	// complementarity is already blocked by the incomparable
	// variable-dimension sets). A migration does not need it: it verifies
	// the moved observations, not their relations. The tests and chaos
	// worlds that compare the gate's merged relations with an unsharded
	// oracle after a split do, until the gate answers cross-shard pairs
	// (ROADMAP item 8).
	DisjointMeasures bool
}

// shardGroups is the number of dataset groups (shards): the six
// 2-subsets of the four variable dimensions, two per group.
const shardGroups = 3

func (c ShardWorldsConfig) obsPerDataset() int {
	if c.ObsPerDataset <= 0 {
		return 40
	}
	return c.ObsPerDataset
}

// ShardWorld is one relationship-closed dataset group plus its own
// corpus copy, ready to serve as a shard's state.
type ShardWorld struct {
	// Name identifies the group ("g0", "g1", ...).
	Name string
	// Corpus holds only this group's datasets (sharing the registry).
	Corpus *qb.Corpus
	// Datasets lists the group's dataset URIs, for the gate's shard map.
	Datasets []string
}

// ShardWorlds builds the sharded corpus: one ShardWorld per group plus
// the combined corpus over every group's datasets (the unsharded
// oracle's input). All corpora share one hierarchy registry, and the
// combined corpus lists datasets in group order, so observation URIs and
// dimension universes line up exactly.
func ShardWorlds(cfg ShardWorldsConfig) (worlds []*ShardWorld, combined *qb.Corpus) {
	per := cfg.obsPerDataset()
	rng := rand.New(rand.NewSource(cfg.Seed))
	reg := RealWorldHierarchies()

	// The four variable dimensions and their six 2-subsets in
	// lexicographic order. Group g takes subset g and its complement
	// subset 5-g — distinct across groups (incomparability), jointly
	// covering all four variables (equal dimension universe).
	vars := []rdf.Term{DimSex, DimUnit, DimAge, DimCitizenship}
	var pairs [][2]int
	for a := 0; a < len(vars); a++ {
		for b := a + 1; b < len(vars); b++ {
			pairs = append(pairs, [2]int{a, b})
		}
	}

	combined = qb.NewCorpus(reg)
	for g := 0; g < shardGroups; g++ {
		world := &ShardWorld{
			Name:   fmt.Sprintf("g%d", g),
			Corpus: qb.NewCorpus(reg),
		}
		measure := exIRI(fmt.Sprintf("measure/shard/M%d", g))
		for d := 0; d < 2; d++ {
			if cfg.DisjointMeasures {
				measure = exIRI(fmt.Sprintf("measure/shard/M%d_%d", g, d))
			}
			idx := pairs[g]
			if d == 1 {
				idx = pairs[len(pairs)-1-g]
			}
			dims := []rdf.Term{DimRefArea, DimRefPeriod, vars[idx[0]], vars[idx[1]]}
			ds := &qb.Dataset{
				URI:    exIRI(fmt.Sprintf("dataset/shard/g%d/D%d", g, d)),
				Schema: qb.NewSchema(dims, []rdf.Term{measure}),
			}
			var drawn [][]rdf.Term
			for i := 0; i < per; i++ {
				var dimVals []rdf.Term
				switch kind := rng.Intn(10); {
				case kind < 2 && len(drawn) > 0:
					// Rollup: lift an earlier observation's values one
					// level wherever that stays below root.
					src := drawn[rng.Intn(len(drawn))]
					dimVals = liftBelowRoot(ds.Schema.Dimensions, src, reg)
				case kind == 2 && len(drawn) > 0:
					// Twin: exact value copy, new URI and measure value.
					dimVals = drawn[rng.Intn(len(drawn))]
				default:
					dimVals = make([]rdf.Term, len(ds.Schema.Dimensions))
					for di, dim := range ds.Schema.Dimensions {
						dimVals[di] = drawBelowRoot(reg.Get(dim), rng)
					}
				}
				drawn = append(drawn, dimVals)
				meas := []rdf.Term{rdf.NewInteger(int64(rng.Intn(1000000)))}
				uri := exIRI(fmt.Sprintf("obs/shard/g%d/D%d/%d", g, d, i))
				if _, err := ds.AddObservation(uri, dimVals, meas); err != nil {
					panic(fmt.Sprintf("gen: shard worlds: %v", err))
				}
			}
			world.Corpus.AddDataset(ds)
			world.Datasets = append(world.Datasets, ds.URI.Value)
			combined.AddDataset(ds)
		}
		worlds = append(worlds, world)
	}
	return worlds, combined
}

// drawBelowRoot draws a code strictly below the root: level-0 values
// would let observations from incomparable schemas coincide (both at
// root) and open a complementarity channel across groups.
func drawBelowRoot(cl *hierarchy.CodeList, rng *rand.Rand) rdf.Term {
	for {
		v := drawValue(cl, rng)
		if v != cl.Root {
			return v
		}
	}
}

// liftBelowRoot replaces each value with its parent when the parent is
// still below root, yielding an observation that fully contains the
// source (ancestor-or-equal on every dimension, equal where the value
// already sits at level 1).
func liftBelowRoot(dims []rdf.Term, src []rdf.Term, reg *hierarchy.Registry) []rdf.Term {
	out := make([]rdf.Term, len(src))
	for i, v := range src {
		cl := reg.Get(dims[i])
		if p := cl.Parent(v); !p.IsZero() && p != cl.Root {
			out[i] = p
		} else {
			out[i] = v
		}
	}
	return out
}
