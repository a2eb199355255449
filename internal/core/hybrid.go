package core

import (
	"rdfcube/internal/bitvec"
	"rdfcube/internal/cluster"
	"rdfcube/internal/lattice"
)

// HybridOptions configure the hybrid algorithm.
type HybridOptions struct {
	// MaxCubeSize is the cube population above which intra-cube
	// comparisons fall back to clustering. Zero means 512.
	MaxCubeSize int
	// Clustering configures the intra-cube clustering runs.
	Clustering ClusteringOptions
}

// hybrid implements the paper's §6 future-work sketch combining the two
// methods: lattice pruning bounds the search space exactly (as in
// cubeMasking), but inside cubes whose population exceeds MaxCubeSize —
// where the quadratic intra-cube scan dominates — observations are
// clustered and compared only within clusters. Cross-cube comparisons stay
// exact, so any recall loss is confined to oversized cubes. See baseline
// for the canceled sink's contract.
func hybrid(s *Space, tasks Tasks, sink Sink, opts HybridOptions, g *guard) error {
	maxSize := opts.MaxCubeSize
	if maxSize <= 0 {
		maxSize = 512
	}
	l := BuildLattice(s)
	sink = instrumentSink(s, sink)
	cubes := l.Cubes()
	p := s.NumDims()

	endCompare := s.span(SpanCompare)
	defer endCompare()
	sc := borrowCubeScratch(p)
	defer cubeScratchPool.Put(sc)
	var considered, pruned, compared, candTests, clustered int64
	for _, a := range cubes {
		if err := g.poll(); err != nil {
			return err
		}
		for _, b := range cubes {
			considered++
			if a == b && len(a.Obs) > maxSize {
				clustered++
				compared++
				if err := clusterWithin(s, a, tasks, sink, opts.Clustering, g, sc); err != nil {
					return err
				}
				continue
			}
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
			if err := comparePair(s, a, b, tasks, sink, cand, g, sc); err != nil {
				s.count(CtrCubePairsConsidered, considered)
				s.count(CtrCubePairsPruned, pruned)
				s.count(CtrCubePairsCompared, compared)
				s.count(CtrCandidateDimTests, candTests)
				s.count(CtrHybridCubesClustered, clustered)
				return err
			}
		}
		s.count(CtrCubePairsConsidered, considered)
		s.count(CtrCubePairsPruned, pruned)
		s.count(CtrCubePairsCompared, compared)
		s.count(CtrCandidateDimTests, candTests)
		s.count(CtrHybridCubesClustered, clustered)
		considered, pruned, compared, candTests, clustered = 0, 0, 0, 0, 0
	}
	return sc.pc.flush(g)
}

// clusterWithin clusters one oversized cube's members on their occurrence
// rows (the space's cached matrix, built on first use: a corpus without an
// oversized cube never builds it) and compares observations only inside
// each cluster — a sub-cube swept against itself. Indices emitted to the
// sink are global observation indices.
func clusterWithin(s *Space, cube *lattice.Cube, tasks Tasks, sink Sink, opts ClusteringOptions, g *guard, sc *cubeScratch) error {
	om := BuildOccurrenceMatrix(s)
	rows := make([]*bitvec.Vector, len(cube.Obs))
	for i, m := range cube.Obs {
		rows[i] = om.Rows[m]
	}
	cfg := opts.Config
	if cfg.Poll == nil {
		cfg.Poll = g.pollFunc()
	}
	cl, err := cluster.Cluster(rows, cfg)
	if err != nil {
		return err
	}
	n := int64(len(cube.Obs))
	skipped := n * (n - 1)
	for _, local := range cl.Members() {
		sub := &lattice.Cube{Sig: cube.Sig, Obs: make([]int, len(local))}
		for x, li := range local {
			sub.Obs[x] = cube.Obs[li]
		}
		if err := comparePair(s, sub, sub, tasks, sink, nil, g, sc); err != nil {
			return err
		}
		skipped -= int64(len(local)) * int64(len(local)-1)
	}
	s.count(CtrClusterPairsSkipped, skipped)
	return nil
}
