package core

import (
	mbits "math/bits"
	"sync"

	"rdfcube/internal/bitvec"
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
// compared. Unlike clustering, the pruning is exact, so recall is 1.
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
func cubeMasking(s *Space, tasks Tasks, sink Sink, opts CubeMaskOptions, workers int, g *guard, fault func(int)) error {
	l := BuildLattice(s)
	om := BuildOccurrenceMatrix(s)
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
				return sweepCube(om, cubes[ai], cubes, p, tasks, local, g, ws.(*cubeScratch))
			},
			fingerprint: func(ai int) string {
				return shardFingerprint("cubemask", ai, 0, 0, cubes[ai].Obs)
			},
		}, len(cubes), workers, sink, g, fault)
	}

	sink = instrumentSink(s, sink)
	sc := borrowCubeScratch(p)
	defer cubeScratchPool.Put(sc)
	if complOnly {
		// Complementarity requires identical dimension values, hence
		// identical signatures: only same-cube pairs can qualify. Every
		// cross-cube pair is pruned without even a signature test.
		for _, c := range cubes {
			if err := comparePair(om, c, c, p, tasks, sink, nil, g, sc); err != nil {
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
				if err := comparePair(om, a, b, p, tasks, sink, nil, g, sc); err != nil {
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
		if err := sweepCube(om, a, cubes, p, tasks, sink, g, sc); err != nil {
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
func sweepCube(om *OccurrenceMatrix, a *lattice.Cube, cubes []*lattice.Cube, p int, tasks Tasks, sink Sink, g *guard, sc *cubeScratch) error {
	s := om.Space
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
		allLE := len(sc.cand) == p
		if !tasks.Has(TaskPartial) && !allLE {
			pruned++
			continue
		}
		compared++
		if allLE {
			err = comparePair(om, a, b, p, tasks, sink, nil, g, sc)
		} else {
			err = comparePair(om, a, b, p, tasks, sink, sc.cand, g, sc)
		}
		if err != nil {
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
// buffer, the guard pair-charge accumulator, and the batch row/index
// buffers with their per-lane degree counters.
type cubeScratch struct {
	cand []int
	pc   pairCharge
	rows []*bitvec.Vector
	js   []int
	deg  [bitvec.BatchMax]int
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

// comparePair compares every observation of cube a against every
// observation of cube b, testing containment only on cand dimensions
// (nil means all dimensions, implying a.Sig ≤ b.Sig level-wise). The
// inner rows are visited in batches of up to bitvec.BatchMax: one
// SubsetBatch pass per dimension resolves the whole batch against the
// outer row's occurrence-matrix words, loaded once per batch instead of
// once per pair. Emissions flush lane by lane in the pair-at-a-time
// order.
//
// Observation-pair and dimension-test counters are batched locally and
// flushed once per cube pair; the flush is atomic-safe, so the shard
// pool's workers call this concurrently. A non-nil guard is charged through
// sc.pc (which carries the pair count across calls) at batch granularity;
// on trip the local counters are flushed and the guard's error returned.
func comparePair(om *OccurrenceMatrix, a, b *lattice.Cube, p int, tasks Tasks, sink Sink, cand []int, g *guard, sc *cubeScratch) error {
	s := om.Space
	sameCube := a == b
	allLE := cand == nil
	needPartial := tasks.Has(TaskPartial)
	guarded := g != nil
	if cap(sc.rows) < bitvec.BatchMax {
		sc.rows = make([]*bitvec.Vector, 0, bitvec.BatchMax)
		sc.js = make([]int, 0, bitvec.BatchMax)
	}
	var ordered, dimTests int64
	for _, i := range a.Obs {
		ri := om.Rows[i]
		for bi := 0; bi < len(b.Obs); {
			js, rows := sc.js[:0], sc.rows[:0]
			for bi < len(b.Obs) && len(js) < bitvec.BatchMax {
				j := b.Obs[bi]
				bi++
				if j == i {
					continue
				}
				js = append(js, j)
				rows = append(rows, om.Rows[j])
			}
			kk := len(js)
			if kk == 0 {
				continue
			}
			if guarded {
				if err := sc.pc.add(g, int64(kk)); err != nil {
					s.count(CtrObsPairsCompared, ordered)
					s.count(CtrDimTests, dimTests)
					return err
				}
			}
			ordered += int64(kk)
			lanes := ^uint64(0) >> uint(64-kk)
			alive := lanes
			if needPartial {
				for k := 0; k < kk; k++ {
					sc.deg[k] = 0
				}
			}
			if allLE {
				for d := 0; d < p; d++ {
					dlo, dhi := s.ColRange(d)
					dimTests += int64(kk)
					fwd := bitvec.SubsetBatch(ri, rows, dlo, dhi)
					alive &= fwd
					if needPartial {
						for m := fwd; m != 0; m &= m - 1 {
							sc.deg[mbits.TrailingZeros64(m)]++
						}
					} else if alive == 0 {
						// The paper's pruning, batch-wide: every lane has
						// already failed full containment.
						break
					}
				}
			} else {
				// Off the all-LE path full containment is impossible; only
				// partial degrees (over the candidate dims) matter.
				alive = 0
				if needPartial {
					for _, d := range cand {
						dlo, dhi := s.ColRange(d)
						dimTests += int64(kk)
						fwd := bitvec.SubsetBatch(ri, rows, dlo, dhi)
						for m := fwd; m != 0; m &= m - 1 {
							sc.deg[mbits.TrailingZeros64(m)]++
						}
					}
				}
			}
			for k := 0; k < kk; k++ {
				j := js[k]
				if allLE && alive&(uint64(1)<<uint(k)) != 0 {
					if tasks.Has(TaskFull) && s.SharesMeasure(i, j) {
						sink.Full(i, j)
					}
					// Mutual full containment means value equality, which
					// only happens inside one cube; emit once per pair.
					if tasks.Has(TaskCompl) && sameCube && i < j {
						sink.Compl(i, j)
					}
				} else if needPartial {
					if deg := sc.deg[k]; deg > 0 && deg < p && s.SharesMeasure(i, j) {
						sink.Partial(i, j, float64(deg)/float64(p))
					}
				}
			}
		}
	}
	s.count(CtrObsPairsCompared, ordered)
	s.count(CtrDimTests, dimTests)
	return nil
}
