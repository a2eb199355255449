package core

import "rdfcube/internal/cluster"

// ClusteringOptions configure the §3.2 clustering algorithm. The zero value
// applies the paper's experimental settings: x-means on a 10 % sample with
// the k = √(n/2) rule of thumb.
type ClusteringOptions struct {
	// Config is passed to the clustering substrate.
	Config cluster.Config
}

// clustering runs the paper's §3.2 algorithm: cluster the occurrence-matrix
// rows, then run the baseline pair scan independently inside every cluster.
// Comparisons across clusters are skipped, which makes the method lossy:
// related observations that land in different clusters are missed (the
// recall trade-off of Figure 5(d)).
//
// With a recorder attached, the skipped cross-cluster work is counted as
// cluster.pairs.skipped (ordered pairs), so the lossiness of a run is
// observable next to its speedup.
//
// The cluster assignment is always serial (and deterministic under a fixed
// seed); with workers > 1 each cluster with at least one pair becomes one
// shard of the pool, reported as parallel.clusters and per-worker
// parallel.worker.<id>.clusters. Both the assignment phase (which does no
// pair work but can dominate on large samples) and the per-cluster pair
// scans poll the guard; see baseline for the canceled sink's contract.
func clustering(s *Space, tasks Tasks, sink Sink, opts ClusteringOptions, workers int, g *guard) error {
	om := BuildOccurrenceMatrix(s)
	cfg := opts.Config
	if cfg.Poll == nil {
		cfg.Poll = g.pollFunc()
	}
	endAssign := s.span(SpanCluster)
	cl, err := cluster.Cluster(om.Rows, cfg)
	endAssign()
	if err != nil {
		return err
	}
	members := cl.Members()
	s.gauge(GaugeClusters, float64(len(members)))
	countSkippedPairs(s, members)

	endCompare := s.span(SpanCompare)
	defer endCompare()
	if workers > 1 {
		// Only clusters with at least one pair produce work.
		work := make([][]int, 0, len(members))
		for _, m := range members {
			if len(m) >= 2 {
				work = append(work, m)
			}
		}
		if len(work) >= 2 {
			return runShardPool(s, shardPool{
				kind:     "clusters",
				totalCtr: CtrParallelClusters,
				weight:   func(int) int64 { return 1 },
				scan: func(wi int, local Sink, _ any) error {
					return baselineRows(om, work[wi], 0, len(work[wi]), tasks, local, g)
				},
			}, len(work), workers, sink, g)
		}
	}
	sink = instrumentSink(s, sink)
	for _, m := range members {
		if len(m) < 2 {
			continue
		}
		if err := baselineRows(om, m, 0, len(m), tasks, sink, g); err != nil {
			return err
		}
	}
	return nil
}

// countSkippedPairs reports the ordered pairs clustering will never
// compare — all ordered pairs minus intra-cluster ordered pairs, the
// source of the method's recall loss (Fig. 5(d)).
func countSkippedPairs(s *Space, members [][]int) {
	n := int64(s.N())
	intra := int64(0)
	for _, m := range members {
		intra += int64(len(m)) * int64(len(m)-1)
	}
	s.count(CtrClusterPairsSkipped, n*(n-1)-intra)
}
