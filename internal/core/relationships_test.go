package core

import (
	"math"
	"testing"

	"rdfcube/internal/gen"
)

// mustCompute is Compute for tests that expect a clean run.
func mustCompute(t testing.TB, s *Space, alg Algorithm, opts Options, sink Sink) {
	t.Helper()
	if err := Compute(s, alg, opts, sink); err != nil {
		t.Fatalf("%s: %v", alg, err)
	}
}

// namedPairs converts a result's pair sets to name tuples for comparison.
func namedPairs(s *Space, ps []Pair) map[[2]string]bool {
	out := map[[2]string]bool{}
	for _, p := range ps {
		out[[2]string{s.Obs[p.A].URI.Local(), s.Obs[p.B].URI.Local()}] = true
	}
	return out
}

func wantSet(pairs ...[2]string) map[[2]string]bool {
	out := map[[2]string]bool{}
	for _, p := range pairs {
		out[p] = true
	}
	return out
}

func diffSets(t *testing.T, label string, got, want map[[2]string]bool) {
	t.Helper()
	for p := range want {
		if !got[p] {
			t.Errorf("%s: missing pair %v", label, p)
		}
	}
	for p := range got {
		if !want[p] {
			t.Errorf("%s: unexpected pair %v", label, p)
		}
	}
}

// TestBaselineFigure3 checks the baseline algorithm against the paper's
// Figure 3 derived relationships on the full 10-observation running
// example: o21 fully contains o32 and o34; o22 fully contains o33; o11/o31
// and o13/o35 are complementary. Full containment additionally holds for
// (o13, o12) — the Total-sex population observation contains the Male one —
// which Figure 3 does not display but the definitions imply.
func TestBaselineFigure3(t *testing.T) {
	s, _ := exampleSpace(t)
	res := NewResult()
	mustCompute(t, s, AlgorithmBaseline, Options{Tasks: TaskAll}, res)
	res.Sort()

	diffSets(t, "S_F", namedPairs(s, res.FullSet), wantSet(
		[2]string{"o21", "o32"},
		[2]string{"o21", "o34"},
		[2]string{"o22", "o33"},
		[2]string{"o13", "o12"},
	))
	diffSets(t, "S_C", namedPairs(s, res.ComplSet), wantSet(
		[2]string{"o11", "o31"},
		[2]string{"o13", "o35"},
	))
}

// TestBaselinePartialExample spot-checks partial containment pairs and
// degrees from the worked example: o21 partially contains o31 (refArea and
// sex contain, refPeriod does not → degree 2/3), and the reverse direction
// holds at degree 1/3.
func TestBaselinePartialExample(t *testing.T) {
	s, idx := exampleSpace(t)
	res := newNaiveResult() // records the degree each pair is emitted with
	mustCompute(t, s, AlgorithmBaseline, Options{Tasks: TaskAll}, res)

	p := Pair{idx["o21"], idx["o31"]}
	if got := res.degree[p]; got < 0.66 || got > 0.67 || got != s.Degree(p.A, p.B) {
		t.Errorf("degree(o21→o31) = %v emitted, %v derived, want 2/3", got, s.Degree(p.A, p.B))
	}
	q := Pair{idx["o31"], idx["o21"]}
	if got := res.degree[q]; got < 0.33 || got > 0.34 || got != s.Degree(q.A, q.B) {
		t.Errorf("degree(o31→o21) = %v emitted, %v derived, want 1/3", got, s.Degree(q.A, q.B))
	}
	// o11 → o12 is partial (sex only); the reverse direction has degree 0
	// and must not appear.
	if _, ok := res.degree[Pair{idx["o11"], idx["o12"]}]; !ok {
		t.Errorf("missing partial (o11, o12)")
	}
	if _, ok := res.degree[Pair{idx["o12"], idx["o11"]}]; ok {
		t.Errorf("unexpected partial (o12, o11): degree 0 must not be partial")
	}
	// o11 and o31 share no measure: despite OCM degree 1 both ways they
	// must be complementary, not containing.
	for _, pr := range res.FullSet {
		a, b := s.Obs[pr.A].URI.Local(), s.Obs[pr.B].URI.Local()
		if (a == "o11" && b == "o31") || (a == "o31" && b == "o11") {
			t.Errorf("o11/o31 share no measure; S_F must not contain them")
		}
	}
}

// TestFullImpliesMeasureAndDims property-checks S_F emissions against the
// definitional checkers on the running example.
func TestFullImpliesMeasureAndDims(t *testing.T) {
	s, _ := exampleSpace(t)
	res := NewResult()
	mustCompute(t, s, AlgorithmBaseline, Options{Tasks: TaskAll}, res)
	for _, p := range res.FullSet {
		if !s.FullContains(p.A, p.B) {
			t.Errorf("S_F pair (%d,%d) fails FullContains", p.A, p.B)
		}
	}
	for _, p := range res.PartialSet {
		if !s.PartialContains(p.A, p.B) {
			t.Errorf("S_P pair (%d,%d) fails PartialContains", p.A, p.B)
		}
	}
	for _, p := range res.ComplSet {
		if !s.Complementary(p.A, p.B) {
			t.Errorf("S_C pair (%d,%d) fails Complementary", p.A, p.B)
		}
	}
}

// TestTaskMasking checks that single-task runs emit exactly the matching
// subset of the all-task run.
func TestTaskMasking(t *testing.T) {
	s, _ := exampleSpace(t)
	all := NewResult()
	mustCompute(t, s, AlgorithmBaseline, Options{Tasks: TaskAll}, all)
	all.Sort()

	onlyFull := NewResult()
	mustCompute(t, s, AlgorithmBaseline, Options{Tasks: TaskFull}, onlyFull)
	onlyFull.Sort()
	if len(onlyFull.PartialSet) != 0 || len(onlyFull.ComplSet) != 0 {
		t.Errorf("TaskFull emitted partial/compl relationships")
	}
	if len(onlyFull.FullSet) != len(all.FullSet) {
		t.Errorf("TaskFull found %d full pairs, want %d", len(onlyFull.FullSet), len(all.FullSet))
	}

	onlyCompl := NewResult()
	mustCompute(t, s, AlgorithmBaseline, Options{Tasks: TaskCompl}, onlyCompl)
	onlyCompl.Sort()
	if len(onlyCompl.FullSet) != 0 || len(onlyCompl.PartialSet) != 0 {
		t.Errorf("TaskCompl emitted full/partial relationships")
	}
	if len(onlyCompl.ComplSet) != len(all.ComplSet) {
		t.Errorf("TaskCompl found %d compl pairs, want %d", len(onlyCompl.ComplSet), len(all.ComplSet))
	}
}

// TestAlgorithmsAgreeOnExample checks that every exact algorithm produces
// identical relationship sets on the running example.
func TestAlgorithmsAgreeOnExample(t *testing.T) {
	s, _ := exampleSpace(t)
	truth := NewResult()
	mustCompute(t, s, AlgorithmBaseline, Options{Tasks: TaskAll}, truth)
	truth.Sort()

	for _, alg := range []Algorithm{AlgorithmCubeMasking, AlgorithmCubeMaskingPrefetch, AlgorithmParallel} {
		res := NewResult()
		if err := Compute(s, alg, Options{}, res); err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		res.Sort()
		if f, p, c := res.Counts(); f != len(truth.FullSet) || p != len(truth.PartialSet) || c != len(truth.ComplSet) {
			t.Errorf("%s: counts (%d,%d,%d), want (%d,%d,%d)", alg, f, p, c,
				len(truth.FullSet), len(truth.PartialSet), len(truth.ComplSet))
			continue
		}
		for i := range truth.FullSet {
			if truth.FullSet[i] != res.FullSet[i] {
				t.Errorf("%s: S_F[%d] = %v, want %v", alg, i, res.FullSet[i], truth.FullSet[i])
			}
		}
		for i := range truth.PartialSet {
			if truth.PartialSet[i] != res.PartialSet[i] {
				t.Errorf("%s: S_P[%d] = %v, want %v", alg, i, res.PartialSet[i], truth.PartialSet[i])
			}
		}
		for i := range truth.ComplSet {
			if truth.ComplSet[i] != res.ComplSet[i] {
				t.Errorf("%s: S_C[%d] = %v, want %v", alg, i, res.ComplSet[i], truth.ComplSet[i])
			}
		}
	}
}

// TestAlgorithmsAgreeOnGenerated cross-validates baseline, cubeMasking
// (both variants) and parallel on a generated real-world-replica corpus.
func TestAlgorithmsAgreeOnGenerated(t *testing.T) {
	c := gen.RealWorld(gen.RealWorldConfig{TotalObs: 400, Seed: 7})
	s, err := NewSpace(c)
	if err != nil {
		t.Fatalf("NewSpace: %v", err)
	}
	truth := NewResult()
	mustCompute(t, s, AlgorithmBaseline, Options{Tasks: TaskAll}, truth)
	truth.Sort()
	tf, tp, tc := truth.Counts()
	if tf+tp+tc == 0 {
		t.Fatalf("generated corpus produced no relationships; generator too sparse")
	}

	for _, alg := range []Algorithm{AlgorithmCubeMasking, AlgorithmCubeMaskingPrefetch, AlgorithmParallel} {
		res := NewResult()
		if err := Compute(s, alg, Options{}, res); err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		res.Sort()
		full, partial, compl, overall := Recall(truth, res)
		if overall != 1 || full != 1 || partial != 1 || compl != 1 {
			t.Errorf("%s: recall full=%v partial=%v compl=%v overall=%v, want all 1",
				alg, full, partial, compl, overall)
		}
		if f, p, cc := res.Counts(); f != tf || p != tp || cc != tc {
			t.Errorf("%s: counts (%d,%d,%d), want (%d,%d,%d)", alg, f, p, cc, tf, tp, tc)
		}
	}
}

// TestClusteringIsSubset checks that the lossy clustering method emits a
// subset of the baseline's relationships (precision 1) on generated data.
func TestClusteringIsSubset(t *testing.T) {
	c := gen.RealWorld(gen.RealWorldConfig{TotalObs: 300, Seed: 11})
	s, err := NewSpace(c)
	if err != nil {
		t.Fatalf("NewSpace: %v", err)
	}
	truth := NewResult()
	mustCompute(t, s, AlgorithmBaseline, Options{Tasks: TaskAll}, truth)

	res := NewResult()
	if err := Compute(s, AlgorithmClustering, Options{}, res); err != nil {
		t.Fatalf("clustering: %v", err)
	}
	tf := pairSet(truth.FullSet)
	tp := pairSet(truth.PartialSet)
	tc := pairSet(truth.ComplSet)
	for _, p := range res.FullSet {
		if !tf[p] {
			t.Errorf("clustering emitted full pair %v not in baseline", p)
		}
	}
	for _, p := range res.PartialSet {
		if !tp[p] {
			t.Errorf("clustering emitted partial pair %v not in baseline", p)
		}
	}
	for _, p := range res.ComplSet {
		if !tc[p] {
			t.Errorf("clustering emitted compl pair %v not in baseline", p)
		}
	}
}

// TestComplOnlyShortcutMatchesBaseline pins the complementarity-only
// lattice shortcut (same-cube pairs suffice) against the baseline.
func TestComplOnlyShortcutMatchesBaseline(t *testing.T) {
	c := gen.RealWorld(gen.RealWorldConfig{TotalObs: 500, Seed: 17})
	s, err := NewSpace(c)
	if err != nil {
		t.Fatal(err)
	}
	truth := NewResult()
	mustCompute(t, s, AlgorithmBaseline, Options{Tasks: TaskCompl}, truth)
	truth.Sort()
	res := NewResult()
	mustCompute(t, s, AlgorithmCubeMasking, Options{Tasks: TaskCompl}, res)
	res.Sort()
	if len(truth.ComplSet) != len(res.ComplSet) {
		t.Fatalf("compl counts: baseline %d, shortcut %d", len(truth.ComplSet), len(res.ComplSet))
	}
	for i := range truth.ComplSet {
		if truth.ComplSet[i] != res.ComplSet[i] {
			t.Errorf("pair %d: %v vs %v", i, truth.ComplSet[i], res.ComplSet[i])
		}
	}
	if len(truth.FullSet) != 0 || len(res.FullSet) != 0 {
		t.Errorf("TaskCompl must not emit full pairs")
	}
}

// TestClusteringRecallPinned pins the §3.2 recall of ONE input: with fixed
// generator and clustering seeds the cluster assignment, hence the set of
// pairs the method finds, is deterministic, and on gen.RealWorld n = 2 400
// seed 1 it finds 0.681 of the baseline's relationships — on one worker or
// four. This is a change detector, not a quality floor: a kernel change
// sold as a speed-up that drops (or invents) pairs moves the value and is
// noticed here, on any host. It says nothing about what recall clustering
// ought to reach — across seeds it ranges 0.55–1.00 (ROADMAP 4E), and the
// benchmark's core.clustering.recall reports the value of its own corpus.
// A deliberate change to the sampling or to x-means re-pins it.
func TestClusteringRecallPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("n = 2400")
	}
	s := obsTestSpace(t, 2400)
	truth := NewResult()
	mustCompute(t, s, AlgorithmBaseline, Options{Tasks: TaskAll}, truth)
	truth.Sort()
	clustered := func(workers int) *Result {
		opts := Options{Tasks: TaskAll, Workers: workers}
		opts.Clustering.Config.Seed = 1
		res := NewResult()
		mustCompute(t, s, AlgorithmClustering, opts, res)
		res.Sort()
		return res
	}
	serial := clustered(0)
	// Recall's definition — true positives over the truth's size — by a
	// merge of the sorted sets; Recall itself hashes the 1.4 M true pairs,
	// which takes longer than computing them.
	found := commonSorted(truth.FullSet, serial.FullSet) + commonSorted(truth.PartialSet, serial.PartialSet) + commonSorted(truth.ComplSet, serial.ComplSet)
	f, p, c := truth.Counts()
	if overall := float64(found) / float64(f+p+c); math.Abs(overall-0.681) > 0.02 {
		t.Errorf("clustering recall on realworld n=2400 seed 1 is %.4f (%d of %d pairs), pinned at 0.681 ± 0.02", overall, found, f+p+c)
	}
	sameResult(t, "clustering on 4 workers vs serial", clustered(4), serial)
}

// commonSorted counts the pairs two sorted, duplicate-free sets share.
func commonSorted(a, b []Pair) int {
	n := 0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] == b[j]:
			n, i, j = n+1, i+1, j+1
		case a[i].A < b[j].A || a[i].A == b[j].A && a[i].B < b[j].B:
			i++
		default:
			j++
		}
	}
	return n
}
