package obsv

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestHistogramBucketRoundTrip: every value must land in a bucket whose
// [lo, hi) range contains it, and bucket bounds must tile the axis.
func TestHistogramBucketRoundTrip(t *testing.T) {
	values := []int64{0, 1, 2, 15, 16, 17, 31, 32, 100, 1000, 12345,
		1 << 20, 1<<40 + 3, math.MaxInt64}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 10000; i++ {
		values = append(values, int64(r.Uint64()>>uint(r.Intn(63))))
	}
	for _, v := range values {
		if v < 0 {
			v = -v
		}
		i := bucketIndex(v)
		if i < 0 || i >= NumHistBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, i)
		}
		lo, hi := bucketBounds(i)
		if v < lo || (v >= hi && hi != math.MaxInt64) {
			t.Fatalf("value %d fell into bucket %d = [%d, %d)", v, i, lo, hi)
		}
	}
	// Buckets tile: bucket k's hi is bucket k+1's lo (until the clamped top).
	for i := 0; i < NumHistBuckets-1; i++ {
		_, hi := bucketBounds(i)
		lo, _ := bucketBounds(i + 1)
		if hi != lo && hi != math.MaxInt64 {
			t.Fatalf("gap between bucket %d (hi %d) and %d (lo %d)", i, hi, i+1, lo)
		}
	}
}

// TestHistogramQuantileMatchesSnapshot: the live Quantile reads what a
// snapshot of the same data reads, at every q (out of range and NaN
// included), empty, with one value and on four distributions, and it
// allocates nothing.
func TestHistogramQuantileMatchesSnapshot(t *testing.T) {
	quantiles := []float64{math.NaN(), -1, 0, 0.001, 0.1, 0.5, 0.9, 0.99, 0.999, 1, 2}
	same := func(what string, h *Histogram) {
		t.Helper()
		s := h.Snapshot()
		for _, q := range quantiles {
			got, want := h.Quantile(q), s.Quantile(q)
			if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("%s: Quantile(%v) = %v, the snapshot reads %v", what, q, got, want)
			}
		}
	}
	h := &Histogram{}
	same("empty", h)
	h.Observe(12345)
	same("one value", h)
	r := rand.New(rand.NewSource(5))
	gens := map[string]func() int64{
		"exact buckets": func() int64 { return r.Int63n(16) },
		"uniform":       func() int64 { return r.Int63n(1_000_000) },
		"lognormal":     func() int64 { return int64(math.Exp(r.NormFloat64()*2 + 8)) },
		"wide":          func() int64 { return int64(r.Uint64() >> uint(r.Intn(64))) },
	}
	for name, gen := range gens {
		h := &Histogram{}
		for i := 1; i <= 5000; i++ {
			h.Observe(gen())
			if i%250 == 0 {
				same(name, h)
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = h.Quantile(0.9) }); allocs != 0 {
		t.Fatalf("Quantile allocates %.0f times", allocs)
	}
}

// TestHistogramQuantileAccuracy is the property test: on random
// distributions the histogram quantile must stay within the bucket
// relative-width bound of the exact sorted-reference quantile.
func TestHistogramQuantileAccuracy(t *testing.T) {
	dists := []struct {
		name string
		gen  func(r *rand.Rand) int64
	}{
		{"uniform", func(r *rand.Rand) int64 { return r.Int63n(1_000_000) }},
		{"exponential", func(r *rand.Rand) int64 { return int64(r.ExpFloat64() * 50_000) }},
		{"lognormal", func(r *rand.Rand) int64 { return int64(math.Exp(r.NormFloat64()*2 + 8)) }},
		{"bimodal", func(r *rand.Rand) int64 {
			if r.Intn(10) == 0 {
				return 500_000 + r.Int63n(100_000) // slow tail
			}
			return 100 + r.Int63n(400)
		}},
	}
	quantiles := []float64{0.5, 0.9, 0.99, 0.999}
	for _, d := range dists {
		for seed := int64(1); seed <= 3; seed++ {
			r := rand.New(rand.NewSource(seed))
			h := &Histogram{}
			vals := make([]int64, 20000)
			for i := range vals {
				v := d.gen(r)
				vals[i] = v
				h.Observe(v)
			}
			sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
			s := h.Snapshot()
			if s.Count != int64(len(vals)) {
				t.Fatalf("%s/%d: snapshot count %d, want %d", d.name, seed, s.Count, len(vals))
			}
			for _, q := range quantiles {
				exact := float64(vals[int(q*float64(len(vals)-1))])
				got := s.Quantile(q)
				// Bucket relative width is ≤ 1/8; allow that plus rank
				// discretization slack, and an absolute floor for the
				// exact small buckets.
				tol := exact*0.125 + 2
				if math.Abs(got-exact) > tol {
					t.Errorf("%s/seed%d p%g: histogram %.0f vs exact %.0f (tol %.0f)",
						d.name, seed, q*100, got, exact, tol)
				}
			}
		}
	}
}

// TestHistogramConcurrentMerge is the race test: N writers hammer one
// histogram while a reader snapshots and merges; the final merged state
// must account for every observation exactly once.
func TestHistogramConcurrentMerge(t *testing.T) {
	const writers = 8
	const perWriter = 20000
	h := &Histogram{}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Snapshot reader: merges successive snapshots; intermediate merges
	// only need to not crash or tear — the final check is exact.
	wg.Add(1)
	go func() {
		defer wg.Done()
		acc := &HistSnapshot{}
		for {
			select {
			case <-stop:
				return
			default:
				acc.Merge(h.Snapshot())
				_ = acc.Quantile(0.99)
			}
		}
	}()
	var writerWg sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWg.Add(1)
		go func(seed int64) {
			defer writerWg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < perWriter; i++ {
				h.Observe(r.Int63n(1 << 30))
			}
		}(int64(w + 1))
	}
	writerWg.Wait()
	close(stop)
	wg.Wait()

	s := h.Snapshot()
	if want := int64(writers * perWriter); s.Count != want {
		t.Fatalf("final count %d, want %d", s.Count, want)
	}
	// Merging two independent halves equals observing everything once.
	a, b := &Histogram{}, &Histogram{}
	for i := int64(0); i < 1000; i++ {
		a.Observe(i * 3)
		b.Observe(i * 7)
	}
	merged := a.Snapshot()
	merged.Merge(b.Snapshot())
	if merged.Count != 2000 {
		t.Fatalf("merged count %d, want 2000", merged.Count)
	}
	both := &Histogram{}
	for i := int64(0); i < 1000; i++ {
		both.Observe(i * 3)
		both.Observe(i * 7)
	}
	ref := both.Snapshot()
	if merged.Counts != ref.Counts || merged.Sum != ref.Sum {
		t.Fatal("merge of two halves differs from observing everything in one histogram")
	}
}

// TestCollectorHistogramExposition checks the Prometheus text shape:
// cumulative, monotone buckets ending in +Inf, plus _sum and _count.
func TestCollectorHistogramExposition(t *testing.T) {
	c := NewCollector()
	for i := int64(1); i <= 100; i++ {
		c.Observe("serve.latency.us", i*i)
	}
	var sb strings.Builder
	if err := c.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE rdfcube_hist histogram",
		`rdfcube_hist_bucket{name="serve.latency.us",le="+Inf"} 100`,
		`rdfcube_hist_count{name="serve.latency.us"} 100`,
		`rdfcube_hist_sum{name="serve.latency.us"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Cumulative counts must be monotone.
	s, ok := c.HistSnapshot("serve.latency.us")
	if !ok {
		t.Fatal("HistSnapshot missing")
	}
	last := uint64(0)
	s.Buckets(func(upper int64, cum uint64) bool {
		if cum < last {
			t.Errorf("cumulative count decreased at le=%d: %d < %d", upper, cum, last)
		}
		last = cum
		return true
	})
	if last != 100 {
		t.Errorf("final cumulative %d, want 100", last)
	}
}

// TestSpanCloseFeedsPhaseHistogram: Collector.Start's closer must feed
// the per-phase duration histogram.
func TestSpanCloseFeedsPhaseHistogram(t *testing.T) {
	c := NewCollector()
	end := c.Start("compare")
	end()
	s, ok := c.HistSnapshot("phase.compare.us")
	if !ok || s.Count != 1 {
		t.Fatalf("phase.compare.us histogram not recorded: ok=%v snapshot=%+v", ok, s)
	}
}

// TestWriteRuntimeMetrics smoke-checks the runtime exposition.
func TestWriteRuntimeMetrics(t *testing.T) {
	var sb strings.Builder
	if err := WriteRuntimeMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"rdfcube_go_goroutines", "rdfcube_go_heap_objects_bytes", "rdfcube_go_gc_pause_seconds"} {
		if !strings.Contains(out, want) {
			t.Errorf("runtime exposition missing %q in:\n%s", want, out)
		}
	}
}

// TestTraceCollectorAttribution: counters land on the innermost open
// span; nesting and deep-copying behave like Collector's.
func TestTraceCollectorAttribution(t *testing.T) {
	tc := NewTraceCollector()
	endRoot := tc.Start("related")
	tc.Count("resolve.hits", 1)
	endChild := tc.Start("compare")
	tc.Count("dim.tests", 42)
	tc.Count("dim.tests", 8)
	endChild()
	tc.Count("emit.full", 3)
	endRoot()

	spans := tc.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d roots, want 1", len(spans))
	}
	root := spans[0]
	if root.Name != "related" || root.Counters["resolve.hits"] != 1 || root.Counters["emit.full"] != 3 {
		t.Fatalf("root mis-recorded: %+v", root)
	}
	if len(root.Children) != 1 || root.Children[0].Name != "compare" || root.Children[0].Counters["dim.tests"] != 50 {
		t.Fatalf("child mis-recorded: %+v", root.Children[0])
	}
	// Counts after all spans closed attach to the last root, not vanish.
	tc.Count("late.flush", 5)
	if got := tc.Spans()[0].Counters["late.flush"]; got != 5 {
		t.Fatalf("late flush lost: got %d", got)
	}
}
