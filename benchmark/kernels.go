package main

import (
	"bytes"
	"fmt"
	"os"

	"rdfcube/internal/core"
	"rdfcube/internal/faultfs"
	"rdfcube/internal/snapshot"
)

// Kernel-level correctness checks: batch's own, and the clustering check
// the traced run of every workload makes for core.clustering.recall.

// pairBits is a set of ordered observation pairs as an n×n bit matrix.
type pairBits struct {
	n    int
	bits []uint64
}

func newPairBits(n int, pairs []core.Pair) *pairBits {
	s := &pairBits{n: n, bits: make([]uint64, (n*n+63)/64)}
	for _, p := range pairs {
		i := p.A*n + p.B
		s.bits[i/64] |= 1 << (i % 64)
	}
	return s
}

func (s *pairBits) has(a, b int) bool {
	if a < 0 || b < 0 || a >= s.n || b >= s.n {
		return false
	}
	i := a*s.n + b
	return s.bits[i/64]&(1<<(i%64)) != 0
}

// subsetSink is a core.Sink that counts the pairs a method reports and
// how many of them the exact result lacks, without materialising them.
type subsetSink struct {
	full, partial, compl *pairBits
	found, invented      int
}

func newSubsetSink(n int, truth *core.Result) *subsetSink {
	return &subsetSink{
		full:    newPairBits(n, truth.FullSet),
		partial: newPairBits(n, truth.PartialSet),
		compl:   newPairBits(n, truth.ComplSet),
	}
}

func (s *subsetSink) record(set *pairBits, a, b int) {
	if set.has(a, b) {
		s.found++
	} else {
		s.invented++
	}
}

func (s *subsetSink) Full(a, b int)               { s.record(s.full, a, b) }
func (s *subsetSink) Partial(a, b int, _ float64) { s.record(s.partial, a, b) }
func (s *subsetSink) Compl(a, b int)              { s.record(s.compl, a, b) }

// clusteringRecall runs the lossy clustering method against the exact
// result: its overall recall (core.Recall's definition: pairs found over
// pairs that exist, all three sets together) and the number of pairs it
// reported that the exact result lacks, which must be zero.
func clusteringRecall(s *core.Space, truth *core.Result, workers int) (recall float64, invented int, err error) {
	sink := newSubsetSink(s.N(), truth)
	if err := core.Compute(s, core.AlgorithmClustering, core.Options{Tasks: core.TaskAll, Workers: workers}, sink); err != nil {
		return 0, 0, fmt.Errorf("core.Compute clustering: %w", err)
	}
	total := len(truth.FullSet) + len(truth.PartialSet) + len(truth.ComplSet)
	return float64(sink.found) / float64(max(total, 1)), sink.invented, nil
}

// checkClustering insists that clustering invents nothing and that its
// recall repeats exactly for the seed, and returns the recall. s must be a
// space no server has adopted.
func (rc *run) checkClustering(s *core.Space, truth *core.Result) (float64, error) {
	r1, invented, err := clusteringRecall(s, truth, rc.procs)
	if err != nil {
		return 0, err
	}
	r2, _, err := clusteringRecall(s, truth, rc.procs)
	if err != nil {
		return 0, err
	}
	rc.rep.attempted += 2
	if invented > 0 {
		rc.rep.fail("clustering reported %d pairs the exact result lacks", invented)
	}
	if r1 != r2 {
		rc.rep.fail("clustering recall does not repeat for one seed: %v then %v", r1, r2)
	}
	rc.rep.note("clustering recall %.6f (twice), 0 invented pairs required, got %d", r1, invented)
	return r1, nil
}

// checkBatch verifies the batch pipeline's kernel outputs: cubeMasking
// finds what the quadratic baseline finds, and clustering invents nothing.
// The traced run has made the clustering check already, for its recall.
func (rc *run) checkBatch(b *built) error {
	var base core.Counter
	if err := core.Compute(b.space, core.AlgorithmBaseline, core.Options{Tasks: core.TaskAll, Workers: rc.procs}, &base); err != nil {
		return fmt.Errorf("core.Compute baseline: %w", err)
	}
	rc.rep.attempted++
	if err := checkCounts("cubemasking vs baseline", countsOf(b.res), counts{base.NFull, base.NPartial, base.NCompl}); err != nil {
		rc.rep.fail("%v", err)
	}
	if rc.traced() {
		return nil
	}
	_, err := rc.checkClustering(b.space, b.res)
	return err
}

// checkReencodes insists that the snapshot just decoded from dir's current
// generation encodes back to the bytes on disk.
func (rc *run) checkReencodes(dir string, sn *snapshot.Snapshot) error {
	gen, ok := snapshot.NewRotator(faultfs.OS{}, snapPath(dir)).CurrentGen()
	if !ok {
		return fmt.Errorf("no snapshot generation under %s", dir)
	}
	data, err := os.ReadFile(fmt.Sprintf("%s.%06d", snapPath(dir), gen))
	if err != nil {
		return err
	}
	rc.rep.attempted++
	if err := sameEncoding(sn, data); err != nil {
		rc.rep.fail("%v", err)
	}
	return nil
}

// checkReencode insists that decoding a snapshot and encoding the result
// reproduces the input bytes.
func checkReencode(data []byte) error {
	sn, err := snapshot.Read(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("snapshot does not decode: %v", err)
	}
	return sameEncoding(sn, data)
}

// sameEncoding insists that a decoded snapshot encodes back to data.
func sameEncoding(sn *snapshot.Snapshot, data []byte) error {
	again, err := sn.Encode()
	if err != nil {
		return fmt.Errorf("decoded snapshot does not re-encode: %v", err)
	}
	if !bytes.Equal(data, again) {
		return fmt.Errorf("decoded snapshot re-encodes to different bytes (%d vs %d)", len(again), len(data))
	}
	return nil
}
