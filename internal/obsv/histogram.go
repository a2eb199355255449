package obsv

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Histogram is a fixed-memory, lock-free latency/size histogram with
// logarithmic buckets: values below histExact get one exact bucket each,
// larger values share histSubBuckets buckets per power of two, so the
// relative width of any bucket is at most 1/histSubBuckets (12.5%) and a
// quantile read off the bucket midpoint carries a bounded relative error
// no matter how wide the recorded range is. Memory is constant
// (NumHistBuckets atomic words, ~4 KiB) regardless of count.
//
// Observe is a few atomic adds — cheap enough for one call per HTTP
// request or per kernel phase, far off the per-pair hot path (which stays
// batched exactly as before; nothing here is consulted by the kernels'
// inner loops). Snapshots are consistent enough for monitoring: counts
// are read bucket-by-bucket while writers proceed, so a snapshot taken
// mid-Observe may be off by the in-flight observation — never torn, and
// quantile ranks always use the snapshot's own bucket total.
//
// The zero value is ready to use.
type Histogram struct {
	counts [NumHistBuckets]atomic.Uint64
	sum    atomic.Int64
}

// Bucket layout: 8 sub-buckets per octave after 16 exact unit buckets.
const (
	histSubBits    = 3
	histSubBuckets = 1 << histSubBits       // 8 buckets per power of two
	histExact      = 1 << (histSubBits + 1) // values in [0,16) get exact buckets
	// NumHistBuckets covers the full non-negative int64 range:
	// 16 exact buckets + 8 per octave for octaves 4..63.
	NumHistBuckets = histExact + (64-(histSubBits+1))*histSubBuckets
)

// bucketIndex maps a non-negative value to its bucket. Negative values
// clamp to bucket 0 (durations cannot be negative; a clock step should
// not corrupt the distribution's shape).
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < histExact {
		return int(u)
	}
	n := bits.Len64(u) // ≥ histSubBits+2
	shift := uint(n - histSubBits - 1)
	m := int(u>>shift) - histSubBuckets // 0..histSubBuckets-1
	return histExact + (n-histSubBits-2)*histSubBuckets + m
}

// bucketBounds returns bucket i's half-open value range [lo, hi).
func bucketBounds(i int) (lo, hi int64) {
	if i < histExact {
		return int64(i), int64(i) + 1
	}
	k := i - histExact
	n := k/histSubBuckets + histSubBits + 2 // bits.Len64 of members
	m := uint64(k % histSubBuckets)
	shift := uint(n - histSubBits - 1)
	ulo := (histSubBuckets + m) << shift
	uhi := ulo + 1<<shift
	// The very top octave overflows int64; clamp — no recordable value
	// lives there anyway.
	if ulo > math.MaxInt64 {
		ulo = math.MaxInt64
	}
	if uhi > math.MaxInt64 || uhi < ulo {
		uhi = math.MaxInt64
	}
	return int64(ulo), int64(uhi)
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.counts[bucketIndex(v)].Add(1)
	h.sum.Add(v)
}

// Snapshot copies the current state into an immutable, mergeable value.
func (h *Histogram) Snapshot() *HistSnapshot {
	s := &HistSnapshot{}
	var total uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		total += c
	}
	s.Count = int64(total)
	s.Sum = h.sum.Load()
	return s
}

// Quantile estimates the q-quantile of the live counters as
// HistSnapshot.Quantile does, without copying them: one pass totals the
// buckets, a second finds the rank. An Observe between the passes can
// shift the answer by that observation, as it can a snapshot's.
func (h *Histogram) Quantile(q float64) float64 {
	var total uint64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	if total == 0 {
		return 0
	}
	rank := quantileRank(q, total)
	var cum uint64
	for i := range h.counts {
		if c := h.counts[i].Load(); c > 0 {
			if float64(cum+c) > rank {
				return interpolate(i, rank, cum, c)
			}
			cum += c
		}
	}
	// Counters only grow, so only a NaN q gets here: the top bucket, as a
	// snapshot answers it.
	for i := NumHistBuckets - 1; i >= 0; i-- {
		if h.counts[i].Load() > 0 {
			lo, _ := bucketBounds(i)
			return float64(lo)
		}
	}
	return 0
}

// quantileRank is the (fractional, zero-based) rank of the q-quantile
// among count values, q clamped to [0,1].
func quantileRank(q float64, count uint64) float64 {
	return min(max(q, 0), 1) * float64(count-1)
}

// interpolate places rank inside bucket i, which holds c values above the
// cum values of the buckets below it: exact buckets return their value,
// wider ones interpolate linearly.
func interpolate(i int, rank float64, cum, c uint64) float64 {
	lo, hi := bucketBounds(i)
	if hi-lo <= 1 {
		return float64(lo)
	}
	within := (rank - float64(cum) + 0.5) / float64(c)
	return float64(lo) + within*float64(hi-lo)
}

// HistSnapshot is a point-in-time copy of a Histogram: plain integers,
// safe to merge, compare and serialize. Count is the bucket total of the
// snapshot (authoritative for quantile ranks); Sum is the sum of observed
// values (Mean = Sum/Count).
type HistSnapshot struct {
	Counts [NumHistBuckets]uint64 `json:"-"`
	Count  int64                  `json:"count"`
	Sum    int64                  `json:"sum"`
}

// Merge folds other into s — the shard/replica aggregation primitive.
func (s *HistSnapshot) Merge(other *HistSnapshot) {
	if other == nil {
		return
	}
	for i := range s.Counts {
		s.Counts[i] += other.Counts[i]
	}
	s.Count += other.Count
	s.Sum += other.Sum
}

// Mean returns the arithmetic mean of the observed values (0 when empty).
func (s *HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile estimates the q-quantile (q in [0,1]) by locating the bucket
// holding the target rank and interpolating linearly inside it. Exact
// buckets return their exact value; log buckets carry at most their
// relative width (≤ 1/8) of error. Returns 0 on an empty snapshot.
func (s *HistSnapshot) Quantile(q float64) float64 {
	if s.Count <= 0 {
		return 0
	}
	rank := quantileRank(q, uint64(s.Count))
	var cum uint64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) > rank {
			return interpolate(i, rank, cum, c)
		}
		cum += c
	}
	// Unreachable when Count matches Counts; fall back to the top bucket.
	for i := NumHistBuckets - 1; i >= 0; i-- {
		if s.Counts[i] > 0 {
			lo, _ := bucketBounds(i)
			return float64(lo)
		}
	}
	return 0
}

// Buckets calls fn for every non-empty bucket in ascending value order
// with the bucket's exclusive upper bound and the CUMULATIVE count up to
// and including it — exactly the shape a Prometheus histogram exposition
// needs. fn returning false stops the walk.
func (s *HistSnapshot) Buckets(fn func(upper int64, cumulative uint64) bool) {
	var cum uint64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		cum += c
		_, hi := bucketBounds(i)
		if !fn(hi, cum) {
			return
		}
	}
}

// QuantileSummary bundles the standard monitoring quantiles of one
// snapshot — the /v1/stats and load-report shape.
type QuantileSummary struct {
	Count  int64   `json:"count"`
	Mean   float64 `json:"mean"`
	P50    float64 `json:"p50"`
	P90    float64 `json:"p90"`
	P99    float64 `json:"p99"`
	P999   float64 `json:"p999"`
	MaxLow float64 `json:"maxLow"` // lower bound of the highest occupied bucket
}

// Summary computes the standard quantile summary.
func (s *HistSnapshot) Summary() QuantileSummary {
	out := QuantileSummary{
		Count: s.Count,
		Mean:  s.Mean(),
		P50:   s.Quantile(0.50),
		P90:   s.Quantile(0.90),
		P99:   s.Quantile(0.99),
		P999:  s.Quantile(0.999),
	}
	for i := NumHistBuckets - 1; i >= 0; i-- {
		if s.Counts[i] > 0 {
			lo, _ := bucketBounds(i)
			out.MaxLow = float64(lo)
			break
		}
	}
	return out
}
