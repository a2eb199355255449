package core

import (
	"cmp"
	"math"
	"slices"
	"sync"
)

// Pair is an ordered observation pair (indices into Space.Obs). For
// containment, A is the containing observation. For complementarity the
// pair is normalized to A < B.
type Pair struct {
	A, B int
}

// Sink receives relationship discoveries as an algorithm streams them.
// Implementations must tolerate duplicate-free, arbitrary-order emission;
// each relationship instance is emitted exactly once per run.
type Sink interface {
	// Full records Cont_full(a, b).
	Full(a, b int)
	// Partial records Cont_partial(a, b) with its OCM degree in (0, 1).
	Partial(a, b int, degree float64)
	// Compl records Compl(a, b) with a < b.
	Compl(a, b int)
}

// Result collects relationship sets in memory: the paper's S_F, S_P and
// S_C, three pair columns. A partial pair's degree is derived on read
// (Space.Degree), never stored.
type Result struct {
	// FullSet is S_F: ordered fully-containing pairs.
	FullSet []Pair
	// PartialSet is S_P: ordered partially-containing pairs.
	PartialSet []Pair
	// ComplSet is S_C: unordered complementary pairs, stored with A < B.
	ComplSet []Pair
	// PartialDegree and PartialDims are not filled by Compute, Incremental
	// or snapshot.Read — they stay nil: a pair's degree is Space.Degree and
	// Algorithm 2's map_P is Space.ContainDims, both functions of the two
	// rows. The fields are kept only because benchmark/state.go names them;
	// the benchmark-archetype PR of ROADMAP 2(a) drops those names and
	// these fields.
	PartialDegree map[Pair]float64
	PartialDims   map[Pair][]int
}

// NewResult returns an empty collecting sink.
func NewResult() *Result { return &Result{} }

// A pool worker's private tape records its shard's emissions — the exact
// call sequence — as fixed-size events until the merge replays them into
// the caller's sink, so Sink implementations need not be thread-safe.
const (
	tapeFull byte = iota
	tapePartial
	tapeCompl
)

// event is one recorded Sink call: 24 bytes, the degree set only for
// tapePartial.
type event struct {
	kind   byte
	a, b   int32
	degree float64
}

// tape is the private sink of a pooled work item. Reaching tapeChunkSize
// events hands them to the merge and rewinds, so chunk boundaries are
// event boundaries. Tapes are the workers' reusable buffers: recycled
// through a pool, they make steady-state pooled runs allocate nothing per
// work item beyond first-use buffer growth.
type tape struct {
	events []event
	merge  *tapeMerge
}

func (t *tape) push(e event) {
	t.events = append(t.events, e)
	if len(t.events) >= tapeChunkSize {
		t.flush()
	}
}

// flush replays the tape's events into the shared sink and rewinds it;
// the scan keeps appending into the rewound buffer.
func (t *tape) flush() {
	t.merge.emit(t.events)
	t.events = t.events[:0]
}

// Full implements Sink.
func (t *tape) Full(a, b int) { t.push(event{kind: tapeFull, a: int32(a), b: int32(b)}) }

// Partial implements Sink.
func (t *tape) Partial(a, b int, degree float64) {
	t.push(event{kind: tapePartial, a: int32(a), b: int32(b), degree: degree})
}

// Compl implements Sink.
func (t *tape) Compl(a, b int) { t.push(event{kind: tapeCompl, a: int32(a), b: int32(b)}) }

// tapePool recycles tapes across work items and runs.
var tapePool = sync.Pool{New: func() any { return new(tape) }}

// borrowTape takes an empty tape from the pool that flushes into merge.
func borrowTape(merge *tapeMerge) *tape {
	t := tapePool.Get().(*tape)
	t.merge = merge
	return t
}

// releaseTape empties the tape and returns it to the pool, keeping
// capacity. Replay copies every value out of the events, so nothing the
// downstream sink kept aliases pooled memory.
func releaseTape(t *tape) {
	t.events = t.events[:0]
	t.merge = nil
	tapePool.Put(t)
}

// Full implements Sink.
func (r *Result) Full(a, b int) { r.FullSet = append(r.FullSet, Pair{a, b}) }

// Partial implements Sink. The degree is not stored: it is a function of
// the two observations' rows, and readers take it from Space.Degree.
func (r *Result) Partial(a, b int, _ float64) { r.PartialSet = append(r.PartialSet, Pair{a, b}) }

// Compl implements Sink.
func (r *Result) Compl(a, b int) {
	if a > b {
		a, b = b, a
	}
	r.ComplSet = append(r.ComplSet, Pair{a, b})
}

// Sort orders the three sets deterministically for comparison and export.
func (r *Result) Sort() {
	sortPairs(r.FullSet)
	sortPairs(r.PartialSet)
	sortPairs(r.ComplSet)
}

// Counts returns |S_F|, |S_P| and |S_C|.
func (r *Result) Counts() (full, partial, compl int) {
	return len(r.FullSet), len(r.PartialSet), len(r.ComplSet)
}

// sortPairs orders pairs by (A, B). Pair members are observation indices,
// so a large set draws them from a range not much wider than the set is
// long, and two stable counting passes (by B, then by A) sort it in linear
// time; anything else — short sets, sparse or negative values — takes the
// comparison sort.
func sortPairs(ps []Pair) {
	hi := 0
	for _, p := range ps {
		if p.A < 0 || p.B < 0 {
			hi = math.MaxInt
			break
		}
		hi = max(hi, p.A, p.B)
	}
	if len(ps) < 256 || hi >= 2*len(ps) {
		slices.SortFunc(ps, func(x, y Pair) int {
			if c := cmp.Compare(x.A, y.A); c != 0 {
				return c
			}
			return cmp.Compare(x.B, y.B)
		})
		return
	}
	tmp := make([]Pair, len(ps))
	next := make([]int, hi+1)
	countingPass(tmp, ps, next, false)
	clear(next)
	countingPass(ps, tmp, next, true)
}

// countingPass scatters src into dst in stable order of A (byA) or of B,
// which must lie in [0, len(next)); next must come in zeroed. A flag picks
// the key because a func argument is not inlined: it cost one indirect
// call per pair per loop. The local key closure is called directly, so it
// is inlined.
func countingPass(dst, src []Pair, next []int, byA bool) {
	key := func(p Pair) int {
		if byA {
			return p.A
		}
		return p.B
	}
	for _, p := range src {
		next[key(p)]++
	}
	at := 0
	for k, c := range next {
		next[k] = at
		at += c
	}
	for _, p := range src {
		k := key(p)
		dst[next[k]] = p
		next[k]++
	}
}

// Counter is a Sink that only counts relationships; it is what the
// benchmark harness uses so that quadratic result sets do not dominate
// memory on large inputs.
type Counter struct {
	// NFull, NPartial and NCompl count emissions per relationship type.
	NFull, NPartial, NCompl int
}

// Full implements Sink.
func (c *Counter) Full(a, b int) { c.NFull++ }

// Partial implements Sink.
func (c *Counter) Partial(a, b int, degree float64) { c.NPartial++ }

// Compl implements Sink.
func (c *Counter) Compl(a, b int) { c.NCompl++ }

// Recall compares a computed result against a ground truth and returns the
// ratio of found relationships, per type and overall, as in the paper's
// recall metric for the clustering method. Precision is 1 by construction
// (the relationship definitions are deterministic), so found sets are
// always subsets of the truth; Recall does not assume it, though, and
// counts only true positives.
func Recall(truth, got *Result) (full, partial, compl, overall float64) {
	tf := pairSet(truth.FullSet)
	tp := pairSet(truth.PartialSet)
	tc := pairSet(truth.ComplSet)
	full = ratio(countIn(got.FullSet, tf), len(tf))
	partial = ratio(countIn(got.PartialSet, tp), len(tp))
	compl = ratio(countIn(got.ComplSet, tc), len(tc))
	num := countIn(got.FullSet, tf) + countIn(got.PartialSet, tp) + countIn(got.ComplSet, tc)
	den := len(tf) + len(tp) + len(tc)
	overall = ratio(num, den)
	return
}

func pairSet(ps []Pair) map[Pair]bool {
	m := make(map[Pair]bool, len(ps))
	for _, p := range ps {
		m[p] = true
	}
	return m
}

func countIn(ps []Pair, truth map[Pair]bool) int {
	n := 0
	for _, p := range ps {
		if truth[p] {
			n++
		}
	}
	return n
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 1
	}
	return float64(num) / float64(den)
}
