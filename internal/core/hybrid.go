package core

import (
	"rdfcube/internal/bitvec"
	"rdfcube/internal/cluster"
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
	om := BuildOccurrenceMatrix(s)
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
				if err := clusterWithin(s, a.Obs, tasks, sink, opts.Clustering, g, &sc.pc); err != nil {
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
			allLE := len(sc.cand) == p
			if !tasks.Has(TaskPartial) && !allLE {
				pruned++
				continue
			}
			compared++
			var err error
			if allLE {
				err = comparePair(om, a, b, p, tasks, sink, nil, g, sc)
			} else {
				err = comparePair(om, a, b, p, tasks, sink, sc.cand, g, sc)
			}
			if err != nil {
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
// rows and compares observations only inside each cluster. Indices emitted
// to the sink are global observation indices.
func clusterWithin(s *Space, members []int, tasks Tasks, sink Sink, opts ClusteringOptions, g *guard, pc *pairCharge) error {
	rows := make([]*bitvec.Vector, len(members))
	for i, m := range members {
		rows[i] = s.Row(m)
	}
	cfg := opts.Config
	if cfg.Poll == nil {
		cfg.Poll = g.pollFunc()
	}
	cl, err := cluster.Cluster(rows, cfg)
	if err != nil {
		return err
	}
	p := s.NumDims()
	guarded := g != nil
	var ordered, dimTests, intra int64
	for _, local := range cl.Members() {
		m := int64(len(local))
		// pairwiseDirect resolves both directions per unordered visit and
		// always tests all p dimensions.
		ordered += m * (m - 1)
		dimTests += int64(p) * m * (m - 1) / 2
		intra += m * (m - 1)
		for x := 0; x < len(local); x++ {
			i := members[local[x]]
			for y := x + 1; y < len(local); y++ {
				if guarded {
					if err := pc.add(g, 2); err != nil {
						s.count(CtrObsPairsCompared, ordered)
						s.count(CtrDimTests, dimTests)
						return err
					}
				}
				j := members[local[y]]
				pairwiseDirect(s, i, j, p, tasks, sink)
			}
		}
	}
	n := int64(len(members))
	s.count(CtrObsPairsCompared, ordered)
	s.count(CtrDimTests, dimTests)
	s.count(CtrClusterPairsSkipped, n*(n-1)-intra)
	return nil
}

// pairwiseDirect resolves one unordered pair in both directions with
// direct value checks (no bit vectors) and emits to the sink. All members
// of one cube share a signature, so equality per dimension decides
// containment in both directions at once.
func pairwiseDirect(s *Space, i, j, p int, tasks Tasks, sink Sink) {
	eq := 0
	for d := 0; d < p; d++ {
		if s.ValueIndex(i, d) == s.ValueIndex(j, d) {
			eq++
		}
	}
	shares := s.SharesMeasure(i, j)
	if eq == p {
		if tasks.Has(TaskFull) && shares {
			sink.Full(i, j)
			sink.Full(j, i)
		}
		if tasks.Has(TaskCompl) {
			sink.Compl(i, j)
		}
		return
	}
	if tasks.Has(TaskPartial) && shares && eq > 0 {
		sink.Partial(i, j, float64(eq)/float64(p))
		sink.Partial(j, i, float64(eq)/float64(p))
	}
}
