package core

import (
	"strings"
	"testing"
)

func TestRelatednessOnExample(t *testing.T) {
	s, idx := exampleSpace(t)
	_ = idx
	res := NewResult()
	mustCompute(t, s, AlgorithmBaseline, Options{Tasks: TaskAll}, res)
	r := ComputeRelatedness(s, res)
	if len(r.Datasets) != 3 {
		t.Fatalf("datasets = %d", len(r.Datasets))
	}
	di := map[string]int{}
	for i, d := range r.Datasets {
		di[d.Local()] = i
	}
	// D2 fully contains D3 observations (o21⊃o32,o34; o22⊃o33).
	full, _, _ := r.Counts(di["D2"], di["D3"])
	if full != 3 {
		t.Errorf("full(D2→D3) = %d, want 3", full)
	}
	// D1/D3 complementarity: (o11,o31), (o13,o35).
	_, _, compl := r.Counts(di["D1"], di["D3"])
	if compl != 2 {
		t.Errorf("compl(D1,D3) = %d, want 2", compl)
	}
	// Complementarity counts must be symmetric across the pair.
	_, _, compl2 := r.Counts(di["D3"], di["D1"])
	if compl2 != compl {
		t.Errorf("compl not symmetric: %d vs %d", compl, compl2)
	}
	// D1 and D2 share no measure and no equal points: no full containment.
	f12, _, c12 := r.Counts(di["D1"], di["D2"])
	if f12 != 0 || c12 != 0 {
		t.Errorf("D1/D2: full %d compl %d, want 0/0", f12, c12)
	}
}

func TestRelatednessScoresAndRanking(t *testing.T) {
	s, _ := exampleSpace(t)
	res := NewResult()
	mustCompute(t, s, AlgorithmBaseline, Options{Tasks: TaskAll}, res)
	r := ComputeRelatedness(s, res)
	for a := range r.Datasets {
		for b := range r.Datasets {
			sc := r.Score(a, b)
			if sc < 0 || sc > 1 {
				t.Errorf("score(%d,%d) = %v out of range", a, b, sc)
			}
		}
	}
	ranked := r.MostRelated()
	if len(ranked) == 0 {
		t.Fatalf("no related pairs")
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Score > ranked[i-1].Score {
			t.Errorf("ranking not descending at %d", i)
		}
	}
	top := ranked[0]
	if top.Score <= 0 || top.String() == "" {
		t.Errorf("top entry malformed: %+v", top)
	}
	table := r.Table()
	if !strings.Contains(table, "D1") || !strings.Contains(table, "D3") {
		t.Errorf("table rendering:\n%s", table)
	}
}
