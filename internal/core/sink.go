package core

import (
	"cmp"
	"encoding/binary"
	"errors"
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

// Bulk load. ComputeCtx does not let a kernel grow a *Result event by
// event: the run emits into a resultStage instead — three append-only pair
// columns — and one commit, on every exit path of the run, appends each to
// its set with a single growth.

// stageChunk is the length of one column chunk. Columns grow chunk by
// chunk, never by one doubling append over the whole run, so staging
// copies nothing and its peak overhead is one partly filled chunk per
// column.
const stageChunk = 8192

// column is an append-only sequence held as fixed-capacity chunks.
type column[T any] struct {
	chunks [][]T
	n      int
}

func (c *column[T]) push(v T) {
	last := len(c.chunks) - 1
	if last < 0 || len(c.chunks[last]) == stageChunk {
		c.chunks = append(c.chunks, make([]T, 0, stageChunk))
		last++
	}
	c.chunks[last] = append(c.chunks[last], v)
	c.n++
}

// resultStage is the Sink a run into a *Result really emits into.
type resultStage struct {
	res                  *Result
	full, partial, compl column[Pair]
}

// Full implements Sink.
func (st *resultStage) Full(a, b int) { st.full.push(Pair{a, b}) }

// Partial implements Sink; the degree is not kept (see Result.Partial).
func (st *resultStage) Partial(a, b int, _ float64) { st.partial.push(Pair{a, b}) }

// Compl implements Sink.
func (st *resultStage) Compl(a, b int) {
	if a > b {
		a, b = b, a
	}
	st.compl.push(Pair{a, b})
}

// commit moves the staged run into the Result, in emission order, after
// whatever the Result already held.
func (st *resultStage) commit() {
	r := st.res
	r.FullSet = appendColumn(r.FullSet, st.full)
	r.PartialSet = appendColumn(r.PartialSet, st.partial)
	r.ComplSet = appendColumn(r.ComplSet, st.compl)
}

// appendColumn appends a staged pair column to a set with one growth.
func appendColumn(set []Pair, c column[Pair]) []Pair {
	if c.n == 0 {
		return set // keep a nil set nil
	}
	set = slices.Grow(set, c.n)
	for _, ch := range c.chunks {
		set = append(set, ch...)
	}
	return set
}

// Tape encoding. A pool worker's private tape is a single event-packed
// byte buffer, not a []struct log: one kind byte per event followed by the
// varint-encoded pair indices, so a Full/Compl event costs ~3 bytes and a
// Partial ~11 instead of the 48-byte struct the first version recorded.
// That representation, flushed in bounded chunks (parallel.go), is what
// keeps the pooled runs' bytes/op in the low kilobytes.
//
//	'F' uvarint(a) uvarint(b)                    Full(a, b)
//	'P' uvarint(a) uvarint(b) 8-byte LE float    Partial(a, b, degree)
//	'C' uvarint(a) uvarint(b)                    Compl(a, b)
const (
	tapeFull    = 'F'
	tapePartial = 'P'
	tapeCompl   = 'C'
)

// errTapeCorrupt reports a tape buffer decodeTape cannot walk: a truncated
// event, an unknown kind byte, or an index outside the int32 range the
// encoder produces.
var errTapeCorrupt = errors.New("core: corrupt tape buffer")

// tape is the private sink of a pooled work item: it records the shard's
// emissions — the exact call sequence — onto its byte buffer until the
// merge decodes them into the caller's sink, so Sink implementations need
// not be thread-safe. Tapes are the workers' reusable pair buffers:
// recycled through a pool, they make steady-state pooled runs allocate
// nothing per work item beyond first-use buffer growth.
type tape struct {
	buf []byte
	// flushed counts bytes already decoded into the shared sink by the
	// chunk flush; the retry of a panicked shard skips this prefix so
	// chunks flushed by the first attempt are never emitted twice (see
	// tapeMerge.flushTail).
	flushed int
}

// appendPair appends an event header: kind byte plus the varint pair.
func (t *tape) appendPair(kind byte, a, b int) {
	t.buf = append(t.buf, kind)
	t.buf = binary.AppendUvarint(t.buf, uint64(uint32(a)))
	t.buf = binary.AppendUvarint(t.buf, uint64(uint32(b)))
}

// Full implements Sink.
func (t *tape) Full(a, b int) { t.appendPair(tapeFull, a, b) }

// Partial implements Sink.
func (t *tape) Partial(a, b int, degree float64) {
	t.appendPair(tapePartial, a, b)
	t.buf = binary.LittleEndian.AppendUint64(t.buf, math.Float64bits(degree))
}

// Compl implements Sink.
func (t *tape) Compl(a, b int) { t.appendPair(tapeCompl, a, b) }

// tapeUvarint decodes one uvarint bounded to the int32 range the tape
// encoder writes, returning the remaining buffer and ok=false on a
// truncated, overlong, or out-of-range value.
func tapeUvarint(buf []byte) (int, []byte, bool) {
	v, n := binary.Uvarint(buf)
	if n <= 0 || v > math.MaxUint32 {
		return 0, buf, false
	}
	return int(uint32(v)), buf[n:], true
}

// decodeTape walks an encoded tape buffer, replaying each event into sink.
// It is total over arbitrary bytes: every read is bounds-checked and
// unknown kinds fail. No event carries a length, so it allocates nothing.
func decodeTape(buf []byte, sink Sink) error {
	for len(buf) > 0 {
		kind := buf[0]
		rest := buf[1:]
		a, rest, ok := tapeUvarint(rest)
		if !ok {
			return errTapeCorrupt
		}
		b, rest, ok := tapeUvarint(rest)
		if !ok {
			return errTapeCorrupt
		}
		switch kind {
		case tapeFull:
			sink.Full(a, b)
		case tapeCompl:
			sink.Compl(a, b)
		case tapePartial:
			if len(rest) < 8 {
				return errTapeCorrupt
			}
			sink.Partial(a, b, math.Float64frombits(binary.LittleEndian.Uint64(rest)))
			rest = rest[8:]
		default:
			return errTapeCorrupt
		}
		buf = rest
	}
	return nil
}

// tapePool recycles tapes across work items and runs.
var tapePool = sync.Pool{New: func() any { return new(tape) }}

// borrowTape takes an empty tape from the pool.
func borrowTape() *tape { return tapePool.Get().(*tape) }

// releaseTape empties the tape's buffer and returns it to the pool,
// keeping capacity. Decoding copies every value out of the buffer, so
// nothing the downstream sink kept aliases pooled memory.
func releaseTape(t *tape) {
	t.buf = t.buf[:0]
	t.flushed = 0
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
	countingPass(tmp, ps, next, func(p Pair) int { return p.B })
	clear(next)
	countingPass(ps, tmp, next, func(p Pair) int { return p.A })
}

// countingPass scatters src into dst in stable order of key, which must
// lie in [0, len(next)); next must come in zeroed.
func countingPass(dst, src []Pair, next []int, key func(Pair) int) {
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
