package core

import (
	"sync"

	"rdfcube/internal/lattice"
)

// CubeMaskOptions configure the §3.3 cubeMasking algorithm.
type CubeMaskOptions struct {
	// PrefetchChildren enables the paper's Fig. 5(g) optimization: the
	// descendant set of every cube is materialized once, so the full-
	// containment sweep walks cached child lists instead of testing every
	// cube pair. Costs O(#cubes²) signature tests up front plus the list
	// memory; the paper reports ~15–20 % faster execution for any input.
	PrefetchChildren bool
}

// BuildLattice hashes every observation of the space into its lattice cube
// (Algorithm 4, steps i–ii). The identification and assignment pass is a
// single linear scan, recorded under the lattice.build span; the cube
// count is reported as the lattice.cubes gauge (Fig. 5(f)).
func BuildLattice(s *Space) *lattice.Lattice {
	end := s.span(SpanLatticeBuild)
	l := lattice.New(s.NumDims())
	sig := make(lattice.Signature, s.NumDims())
	for i := 0; i < s.N(); i++ {
		for d := 0; d < s.NumDims(); d++ {
			sig[d] = uint8(s.Level(i, d))
		}
		l.Add(i, sig)
	}
	end()
	s.gauge(GaugeCubes, float64(l.Len()))
	return l
}

// cubeMasking runs the paper's §3.3 algorithm: observations are hashed to
// lattice cubes, cube pairs are pruned by schema-level (level-wise)
// comparability, and only observations of comparable cube pairs are
// compared. Unlike clustering, the pruning is exact, so recall is 1. The
// comparison is sweepRow over the code rows: the cube signatures already
// are levels of those codes, and no lattice kernel builds or reads the
// occurrence matrix (TestLatticeKernelsLeaveOMUnbuilt).
//
// With a recorder attached, the sweep reports cubes.pairs.considered,
// cubes.pairs.pruned and cubes.pairs.compared; pruned + compared equals
// considered (= #cubes²) in every mode — the pruned ratio is the paper's
// Fig. 5 work-avoidance argument made measurable.
//
// With workers > 1 the generic sweep runs on the shard pool, one shard per
// outer cube (the paper's §6 "distributed and parallel contexts" item as
// shared-memory parallelism): workers flush their batched counters into
// the recorder concurrently (recorders are goroutine-safe), so the pair
// totals stay exact, and the pool adds parallel.cubes and per-worker
// parallel.worker.<id>.cubes. The two shortcuts — complementarity alone,
// and full containment over prefetched children — compare a small
// fraction of the cube pairs and stay serial whatever workers says. The
// serial sweeps poll the guard at every outer cube and charge it every
// guardPairStride ordered observation pairs; see baseline for the canceled
// sink's contract.
func cubeMasking(s *Space, tasks Tasks, sink Sink, opts CubeMaskOptions, workers int, g *guard) error {
	l := BuildLattice(s)
	cubes := l.Cubes()
	p := s.NumDims()
	nc := int64(len(cubes))

	endCompare := s.span(SpanCompare)
	defer endCompare()

	complOnly := tasks&(TaskFull|TaskPartial) == 0 && tasks.Has(TaskCompl)
	prefetched := !tasks.Has(TaskPartial) && opts.PrefetchChildren
	if workers > 1 && nc >= 2 && !complOnly && !prefetched {
		return runShardPool(s, shardPool{
			kind:      "cubes",
			totalCtr:  CtrParallelCubes,
			weight:    func(int) int64 { return 1 },
			newWorker: func() any { return borrowCubeScratch(p) },
			scan: func(ai int, local Sink, ws any) error {
				return sweepCube(s, cubes[ai], cubes, tasks, local, g, ws.(*cubeScratch))
			},
		}, len(cubes), workers, sink, g)
	}

	sink = instrumentSink(s, sink)
	sc := borrowCubeScratch(p)
	defer cubeScratchPool.Put(sc)
	if complOnly {
		// Complementarity requires identical dimension values, hence
		// identical signatures: only same-cube pairs can qualify. Every
		// cross-cube pair is pruned without even a signature test.
		for _, c := range cubes {
			if err := comparePair(s, c, c, tasks, sink, nil, g, sc); err != nil {
				return err
			}
		}
		s.count(CtrCubePairsConsidered, nc*nc)
		s.count(CtrCubePairsCompared, nc)
		s.count(CtrCubePairsPruned, nc*nc-nc)
		return sc.pc.flush(g)
	}

	if prefetched {
		// Prefetched sweep: each cube visits exactly its descendants. The
		// signature tests happen once inside PrefetchChildren; the sweep
		// itself only walks cache hits.
		l.PrefetchChildren()
		s.count(CtrCandidateDimTests, nc*nc)
		var compared int64
		for ai := range cubes {
			a := cubes[ai]
			children := l.Children(ai)
			compared += int64(len(children))
			for _, b := range children {
				if err := comparePair(s, a, b, tasks, sink, nil, g, sc); err != nil {
					return err
				}
			}
		}
		s.count(CtrCubePairsConsidered, nc*nc)
		s.count(CtrCubePairsCompared, compared)
		s.count(CtrCubePairsPruned, nc*nc-compared)
		s.count(CtrPrefetchHits, compared)
		return sc.pc.flush(g)
	}

	for _, a := range cubes {
		if err := g.poll(); err != nil {
			return err
		}
		if err := sweepCube(s, a, cubes, tasks, sink, g, sc); err != nil {
			return err
		}
	}
	return sc.pc.flush(g)
}

// sweepCube is one outer iteration of the generic sweep: cube a against
// every cube, pruning at the signature level. The sweep counters are
// flushed once per outer cube — also when the guard trips mid-cube, so the
// observable pruning accounting stays consistent with the work actually
// done — which keeps live progress moving while bounding recorder traffic
// to one call set per cube.
func sweepCube(s *Space, a *lattice.Cube, cubes []*lattice.Cube, tasks Tasks, sink Sink, g *guard, sc *cubeScratch) error {
	p := s.NumDims()
	var considered, pruned, compared, candTests int64
	var err error
	for _, b := range cubes {
		considered++
		candTests++
		sc.cand = a.Sig.CandidateDims(b.Sig, sc.cand)
		if len(sc.cand) == 0 {
			pruned++
			continue
		}
		cand := sc.cand
		if len(cand) == p {
			cand = nil
		} else if !tasks.Has(TaskPartial) {
			pruned++
			continue
		}
		compared++
		if err = comparePair(s, a, b, tasks, sink, cand, g, sc); err != nil {
			break
		}
	}
	s.count(CtrCubePairsConsidered, considered)
	s.count(CtrCubePairsPruned, pruned)
	s.count(CtrCubePairsCompared, compared)
	s.count(CtrCandidateDimTests, candTests)
	return err
}

// pairCharge accumulates ordered-pair counts across comparePair calls so
// guard charging keeps the fixed guardPairStride cadence even when cubes
// are small (many calls, few pairs each). The zero value is ready to use.
type pairCharge struct{ since int64 }

// add charges the guard once the accumulated count crosses the stride.
func (pc *pairCharge) add(g *guard, n int64) error {
	pc.since += n
	if pc.since < guardPairStride {
		return nil
	}
	err := g.charge(pc.since)
	pc.since = 0
	return err
}

// flush charges any remainder (used once at sweep end).
func (pc *pairCharge) flush(g *guard) error {
	if g == nil || pc.since == 0 {
		return nil
	}
	err := g.charge(pc.since)
	pc.since = 0
	return err
}

// cubeScratch is the pooled working set of the cube sweep, shared by the
// serial sweep and (one per worker) the shard pool: the candidate-dims
// buffer and the guard pair-charge accumulator.
type cubeScratch struct {
	cand []int
	pc   pairCharge
}

var cubeScratchPool = sync.Pool{New: func() any { return new(cubeScratch) }}

// borrowCubeScratch takes a reset scratch from the pool.
func borrowCubeScratch(p int) *cubeScratch {
	sc := cubeScratchPool.Get().(*cubeScratch)
	if cap(sc.cand) < p {
		sc.cand = make([]int, 0, p)
	}
	sc.pc.since = 0
	return sc
}

// comparePair compares every observation of cube a with every observation
// of cube b through sweepRow. Across two cubes each member of a is tested
// forward against b's members on the cand dimensions (nil means all of
// them: a.Sig ≤ b.Sig level-wise); the pair (b, a) is another visit of the
// sweep. Inside one cube (cand is nil) the upper triangle is visited once
// with both directions resolved, which also settles complementarity.
//
// Observation-pair and dimension-test counters are flushed once per cube
// pair, also when the guard (charged through sc.pc, which carries the pair
// count across calls) trips; the flush is atomic-safe, so the shard pool's
// workers call this concurrently.
func comparePair(s *Space, a, b *lattice.Cube, tasks Tasks, sink Sink, cand []int, g *guard, sc *cubeScratch) error {
	var ordered, dimTests int64
	var err error
	for x, i := range a.Obs {
		js := b.Obs
		if a == b {
			js = js[x+1:]
		}
		var pairs, tests int64
		pairs, tests, err = sweepRow(s, i, js, cand, a == b, tasks, sink, g, &sc.pc)
		ordered, dimTests = ordered+pairs, dimTests+tests
		if err != nil {
			break
		}
	}
	s.count(CtrObsPairsCompared, ordered)
	s.count(CtrDimTests, dimTests)
	return err
}
