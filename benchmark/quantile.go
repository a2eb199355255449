package main

import (
	"math"
	"sort"
	"time"
)

// Exact-quantile recorder. Reported latencies are raw per-request
// durations sorted once at the end: obsv.Histogram's 1/8-octave buckets
// quantize by up to 12 %, which alone exceeds a 0.10 regression bound.

// summary is the exact digest of one latency sample set (µs).
type summary struct {
	N   int
	P50 float64
	P99 float64
	// Tail is the highest ladder percentile that still has at least ten
	// samples beyond it, and TailPct names it (0 when N < 20).
	Tail    float64
	TailPct float64
}

// tailLadder lists the percentiles eligible as "highest with ≥ 10
// samples beyond it".
var tailLadder = []float64{50, 75, 90, 95, 99, 99.5, 99.9, 99.95, 99.99}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// quantile returns the nearest-rank q-quantile (0 < q ≤ 1) of sorted.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// summarize sorts a copy of d and digests it.
func summarize(d []time.Duration) summary {
	s := summary{N: len(d)}
	if len(d) == 0 {
		return s
	}
	sorted := append([]time.Duration(nil), d...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	s.P50 = us(quantile(sorted, 0.50))
	s.P99 = us(quantile(sorted, 0.99))
	for _, pct := range tailLadder {
		beyond := len(sorted) - int(math.Ceil(pct/100*float64(len(sorted))))
		if beyond >= 10 {
			s.Tail, s.TailPct = us(quantile(sorted, pct/100)), pct
		}
	}
	return s
}

// median returns the middle value of xs (mean of the middle two when even);
// 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}
