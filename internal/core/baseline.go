package core

import (
	mbits "math/bits"
	"sync"

	"rdfcube/internal/bitvec"
)

// Tasks selects which relationship types an algorithm run computes. The
// paper's Figure 5 times each relationship separately; the task mask lets
// the harness reproduce that, and lets the algorithms apply the paper's
// short-circuit ("if at least one 0 is found, the pair is no longer a
// candidate for full containment or complementarity").
type Tasks uint8

// Task flags.
const (
	// TaskFull computes S_F (full containment).
	TaskFull Tasks = 1 << iota
	// TaskPartial computes S_P (partial containment, with degrees).
	TaskPartial
	// TaskCompl computes S_C (complementarity).
	TaskCompl

	// TaskAll computes all three sets.
	TaskAll = TaskFull | TaskPartial | TaskCompl
)

// Has reports whether t includes all flags of q.
func (t Tasks) Has(q Tasks) bool { return t&q == q }

// minParallelRows is the input size below which the baseline ignores
// Workers and scans serially: goroutine and merge overhead dominates on
// tiny inputs.
const minParallelRows = 64

// baseline runs the paper's §3.1 algorithm: materialize the occurrence
// matrix and compare every observation pair with the per-dimension bit-
// vector conditional function, streaming relationships into sink. It is
// Θ(n²) in pairs; both directions of a pair are resolved in one visit.
//
// With workers > 1 the upper-triangle pair scan is sharded over contiguous
// row blocks of the occurrence matrix (the paper's §6 "distributed and
// parallel contexts" item as shared-memory parallelism): workers claim
// blocks from the shard pool and scan them with the same allocation-free
// inner loop as the serial run. Counters match the serial run
// (obs.pairs.compared totals exactly n·(n−1)) plus the pool's own
// parallel.rows and per-worker parallel.worker.<id>.rows.
//
// A tripped guard makes the serial scan return a *CanceledError having
// emitted an exact prefix of its emission stream; a nil guard keeps the
// unguarded fast path (one nil check per pair batch).
func baseline(s *Space, tasks Tasks, sink Sink, workers int, g *guard) error {
	om := BuildOccurrenceMatrix(s)
	n := s.N()
	endCompare := s.span(SpanCompare)
	defer endCompare()
	if workers <= 1 || n < minParallelRows {
		return baselineRows(om, nil, 0, n, tasks, instrumentSink(s, sink), g)
	}
	// Several blocks per worker so work-stealing can absorb skew from the
	// pair-count balancing being approximate.
	blocks := rowBlocks(n, workers*4)
	return runShardPool(s, shardPool{
		kind:     "rows",
		totalCtr: CtrParallelRows,
		weight:   func(bi int) int64 { return int64(blocks[bi][1] - blocks[bi][0]) },
		scan: func(bi int, local Sink, _ any) error {
			b := blocks[bi]
			return baselineRows(om, nil, b[0], b[1], tasks, local, g)
		},
	}, len(blocks), workers, sink, g)
}

// rowBlocks splits the outer-row index range [0, n) of an upper-triangle
// pair scan into contiguous blocks with approximately equal pair counts.
// Early rows pair with nearly n partners and late rows with few, so equal
// row counts would starve the workers that drew late blocks; equal pair
// counts keep them busy. The block list only depends on n and the target
// count, so the shard layout is deterministic for a given input and
// worker count.
func rowBlocks(n, targetBlocks int) [][2]int {
	if targetBlocks < 1 {
		targetBlocks = 1
	}
	if targetBlocks > n {
		targetBlocks = n
	}
	totalPairs := float64(n) * float64(n-1) / 2
	perBlock := totalPairs / float64(targetBlocks)
	var blocks [][2]int
	lo := 0
	acc := 0.0
	for x := 0; x < n; x++ {
		acc += float64(n - 1 - x)
		if acc >= perBlock || x == n-1 {
			blocks = append(blocks, [2]int{lo, x + 1})
			lo = x + 1
			acc = 0
		}
	}
	if lo < n {
		blocks = append(blocks, [2]int{lo, n})
	}
	return blocks
}

// baselineScratch is the per-call working set of baselineRows: the identity
// index (when the caller scans everything) and the candidate-row batch with
// its per-lane degree counters. Scratches are recycled through a sync.Pool
// so repeated scans — per cluster in the clustering algorithm, per row
// block in the pooled baseline — allocate nothing in steady state.
type baselineScratch struct {
	idx  []int
	rows []*bitvec.Vector
	// degIJ/degJI count containing dimensions per batch lane.
	degIJ [bitvec.BatchMax]int
	degJI [bitvec.BatchMax]int
}

var baselineScratchPool = sync.Pool{New: func() any { return new(baselineScratch) }}

// identity returns [0, n) using (and growing) the scratch's index buffer.
func (sc *baselineScratch) identity(n int) []int {
	if cap(sc.idx) < n {
		sc.idx = make([]int, n)
		for i := range sc.idx {
			sc.idx[i] = i
		}
	}
	return sc.idx[:n]
}

// baselineRows runs the baseline pair scan over a subset of observation
// indices (nil means all): outer rows idx[lo:hi] of the upper-triangle
// pair loop against every later row of idx. The serial baseline passes the
// whole range, the clustering algorithm one cluster's members, and the
// pooled baseline one row block. The scan itself is allocation-free:
// scratch state comes from a pool.
func baselineRows(om *OccurrenceMatrix, idx []int, lo, hi int, tasks Tasks, sink Sink, g *guard) error {
	sc := baselineScratchPool.Get().(*baselineScratch)
	defer baselineScratchPool.Put(sc)
	if idx == nil {
		idx = sc.identity(om.Space.N())
	}
	return baselineScan(om, idx, lo, hi, tasks, sink, sc, g)
}

// baselineScan is the §3.1 inner loop: outer rows x in [lo, hi), inner
// rows y in (x, len(idx)), visited in batches of up to bitvec.BatchMax
// candidate rows. Each batch makes ONE pass over the dimensions with the
// fused SubsetBatchBoth kernel — the outer row's words are loaded once per
// batch instead of once per pair, and the per-dimension boundary masks are
// computed once per batch — then the batch's emissions are flushed lane by
// lane in the order a pair-at-a-time scan would produce them, which is the
// order the serial cancel-prefix contract is stated in. Comparison
// counters are batched locally and flushed per outer row.
//
// When g is non-nil the scan charges the guard at batch granularity (the
// stride check runs before each batch, so abort points fall between
// batches, never inside one); the sink then holds an exact prefix of the
// unguarded emission stream.
func baselineScan(om *OccurrenceMatrix, idx []int, lo, hi int, tasks Tasks, sink Sink, sc *baselineScratch, g *guard) error {
	s := om.Space
	p := s.NumDims()
	needPartial := tasks.Has(TaskPartial)
	if cap(sc.rows) < bitvec.BatchMax {
		sc.rows = make([]*bitvec.Vector, 0, bitvec.BatchMax)
	}

	guarded := g != nil
	var sinceCheck int64
	for x := lo; x < hi; x++ {
		i := idx[x]
		ri := om.Rows[i]
		var ordered, bitTests int64 // batched, flushed per outer row
		for y0 := x + 1; y0 < len(idx); y0 += bitvec.BatchMax {
			kk := min(bitvec.BatchMax, len(idx)-y0)
			if guarded {
				sinceCheck += 2 * int64(kk)
				if sinceCheck >= guardPairStride {
					if err := g.charge(sinceCheck); err != nil {
						s.count(CtrObsPairsCompared, ordered)
						s.count(CtrBitAndTests, bitTests)
						return err
					}
					sinceCheck = 0
				}
			}
			rows := sc.rows[:0]
			for k := 0; k < kk; k++ {
				rows = append(rows, om.Rows[idx[y0+k]])
			}
			ordered += 2 * int64(kk)

			// One pass over the dimensions resolves both directions of
			// every pair in the batch. fwdAcc/revAcc lanes survive only
			// while their pair contains on every dimension seen so far.
			lanes := ^uint64(0) >> uint(64-kk)
			fwdAcc, revAcc := lanes, lanes
			if needPartial {
				for k := 0; k < kk; k++ {
					sc.degIJ[k], sc.degJI[k] = 0, 0
				}
			}
			for d := 0; d < p; d++ {
				dlo, dhi := s.ColRange(d)
				bitTests += 2 * int64(kk)
				fwd, rev := bitvec.SubsetBatchBoth(ri, rows, dlo, dhi)
				fwdAcc &= fwd
				revAcc &= rev
				if needPartial {
					for m := fwd; m != 0; m &= m - 1 {
						sc.degIJ[mbits.TrailingZeros64(m)]++
					}
					for m := rev; m != 0; m &= m - 1 {
						sc.degJI[mbits.TrailingZeros64(m)]++
					}
				} else if fwdAcc|revAcc == 0 {
					// The paper's pruning, batch-wide: without the partial
					// task, once every pair has failed both directions no
					// later dimension can produce anything.
					break
				}
			}

			// Without the partial task no degrees were counted: only a
			// lane that survived in some direction can emit, and it is full.
			emitting := lanes
			if !needPartial {
				emitting = fwdAcc | revAcc
			}
			for m := emitting; m != 0; m &= m - 1 {
				k := mbits.TrailingZeros64(m)
				j := idx[y0+k]
				degIJ, degJI := sc.degIJ[k], sc.degJI[k]
				if !needPartial {
					degIJ, degJI = p*int(fwdAcc>>uint(k)&1), p*int(revAcc>>uint(k)&1)
				}
				emitPair(sink, tasks, p, i, j, degIJ, degJI, s.SharesMeasure(i, j))
			}
		}
		s.count(CtrObsPairsCompared, ordered)
		s.count(CtrBitAndTests, bitTests)
	}
	if guarded {
		return g.charge(sinceCheck)
	}
	return nil
}
