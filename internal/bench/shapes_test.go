package bench

import (
	"testing"

	"rdfcube/internal/core"
)

// TestPaperShapesByCount asserts the shapes of the paper's Fig. 5 on the
// work counters of the runs cubebench -fig makes, never on a time's
// value, so it holds on any host:
//   - the baseline compares every ordered pair, N(N−1) for the observed N;
//   - cubeMasking compares at most 0.2 of them (§3.3, Fig. 5(a–c)), a
//     fraction that does not grow with n — it is flat, so the lattice
//     saves a constant ~6.3 × and the algorithm stays Θ(n²);
//   - clustering compares or skips every ordered pair, and a recall
//     below 1 is counted in skipped pairs;
//   - prefetching changes no answer, and hits every compared cube pair
//     (Fig. 5(g));
//   - the cubes-per-observation ratio falls as n grows (Fig. 5(f)).
//
// The comparator caps are 1, so SPARQL and rules rows are marked, not run.
func TestPaperShapesByCount(t *testing.T) {
	cfg := Config{Seed: 1, ComparatorCap: 1, RulesOOMCap: 1}
	pairs := func(m Measurement) int64 { return int64(m.N) * int64(m.N-1) }
	frac := func(m Measurement) float64 {
		return float64(m.Counters[core.CtrObsPairsCompared]) / float64(pairs(m))
	}

	cfg.Sizes = []int{1500, 3000}
	fig5b, err := Fig5b(cfg)
	if err != nil {
		t.Fatal(err)
	}
	baseFull := map[int]int{}
	for _, m := range fig5b {
		if m.Approach == ApproachBaseline {
			baseFull[m.Size] = m.Full
		}
	}
	for _, m := range fig5b {
		compared := m.Counters[core.CtrObsPairsCompared]
		switch m.Approach {
		case ApproachBaseline:
			if compared != pairs(m) {
				t.Errorf("5b baseline at n=%d (N=%d): %d pairs compared, want N(N−1) = %d", m.Size, m.N, compared, pairs(m))
			}
		case ApproachCubeMasking:
			if f := frac(m); f > 0.2 {
				t.Errorf("5b cubeMasking at n=%d compares %.4f of N(N−1), want ≤ 0.2", m.Size, f)
			}
		case ApproachClustering:
			skipped := m.Counters[core.CtrClusterPairsSkipped]
			if compared+skipped != pairs(m) {
				t.Errorf("5b clustering at n=%d: %d compared + %d skipped, want N(N−1) = %d", m.Size, compared, skipped, pairs(m))
			}
			if m.Full < baseFull[m.Size] && skipped == 0 {
				t.Errorf("5b clustering at n=%d: recall %d/%d below 1 with no skipped pair", m.Size, m.Full, baseFull[m.Size])
			}
		}
	}

	cfg.Sizes = []int{1500, 3000, 6000}
	fig5g, err := Fig5g(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig5g) != 6 {
		t.Fatalf("5g: %d rows, want 3 sizes × {normal, prefetch}", len(fig5g))
	}
	var fracs []float64
	for i := 0; i < len(fig5g); i += 2 {
		normal, pre := fig5g[i], fig5g[i+1]
		if pre.Extra["ratio"] <= 0 {
			t.Errorf("5g at n=%d: no prefetch/normal time ratio", normal.Size)
		}
		f := frac(normal)
		if f > 0.2 {
			t.Errorf("5g cubeMasking at n=%d compares %.4f of N(N−1), want ≤ 0.2", normal.Size, f)
		}
		fracs = append(fracs, f)
		if pre.Full != normal.Full {
			t.Errorf("5g at n=%d: S_F is %d with prefetch, %d without", normal.Size, pre.Full, normal.Full)
		}
		if hits, cmp := pre.Counters[core.CtrPrefetchHits], pre.Counters[core.CtrCubePairsCompared]; hits != cmp {
			t.Errorf("5g at n=%d: %d prefetch hits, %d cube pairs compared", normal.Size, hits, cmp)
		}
	}
	t.Logf("cubeMasking compares %.4f of N(N−1) at n = 1 500, 3 000, 6 000", fracs)
	if fracs[2] > 1.05*fracs[0] {
		t.Errorf("cubeMasking's fraction of N(N−1) at n = 1 500, 3 000, 6 000: %.4f; it must not grow", fracs)
	}

	fig5f, err := Fig5f(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig5f) != 3 {
		t.Fatalf("5f: %d rows, want 3", len(fig5f))
	}
	for i := 1; i < len(fig5f); i++ {
		if prev, cur := fig5f[i-1].Extra["ratio"], fig5f[i].Extra["ratio"]; cur >= prev {
			t.Errorf("5f cubes per observation: %.3f at n=%d, then %.3f at n=%d; it must fall", prev, fig5f[i-1].Size, cur, fig5f[i].Size)
		}
	}
}
