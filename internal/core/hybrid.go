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
// exact, so any recall loss is confined to oversized cubes. The sweep is
// cubeMasking's serial sweepCube with the oversized diagonal pairs handed
// to clusterWithin. See baseline for the canceled sink's contract.
func hybrid(s *Space, tasks Tasks, sink Sink, opts HybridOptions, g *guard) error {
	maxSize := opts.MaxCubeSize
	if maxSize <= 0 {
		maxSize = 512
	}
	l := BuildLattice(s)
	sink = instrumentSink(s, sink)
	cubes := l.Cubes()

	endCompare := s.span(SpanCompare)
	defer endCompare()
	sc := borrowCubeScratch(s.NumDims())
	defer cubeScratchPool.Put(sc)
	var clustered int64
	self := func(c *lattice.Cube) (bool, error) {
		if len(c.Obs) <= maxSize {
			return false, nil
		}
		clustered++
		return true, clusterWithin(s, c, tasks, sink, opts.Clustering, g, sc)
	}
	for _, a := range cubes {
		if err := g.poll(); err != nil {
			return err
		}
		err := sweepCube(s, a, cubes, tasks, sink, self, g, sc)
		s.count(CtrHybridCubesClustered, clustered)
		clustered = 0
		if err != nil {
			return err
		}
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
