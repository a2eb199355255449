package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rdfcube/internal/gen"
	"rdfcube/internal/leakcheck"
	"rdfcube/internal/obsv"
)

// cancelSink wraps an eventSink and fires cancel after the K-th emission
// — the tool of the cancel-at-every-emission-index sweep. The kernel
// keeps running until its next guard poll, so the recorded stream
// is a (generally longer) prefix of the full run, never a truncation
// mid-emission.
type cancelSink struct {
	inner     *eventSink
	remaining int
	cancel    context.CancelFunc
}

func (c *cancelSink) hit() {
	c.remaining--
	if c.remaining == 0 {
		c.cancel()
	}
}

func (c *cancelSink) Full(a, b int)  { c.inner.Full(a, b); c.hit() }
func (c *cancelSink) Compl(a, b int) { c.inner.Compl(a, b); c.hit() }
func (c *cancelSink) Partial(a, b int, degree float64) {
	c.inner.Partial(a, b, degree)
	c.hit()
}

// countEmissions counts the emissions in an eventSink stream by walking
// its records.
func countEmissions(buf []byte) int {
	n := 0
	for i := 0; i < len(buf); {
		n++
		switch buf[i] {
		case 'F', 'C':
			i += 7
		case 'P':
			i += 15
		default:
			return -1
		}
	}
	return n
}

// serialAlgorithms lists every serial kernel with deterministic output.
func serialAlgorithms() []Algorithm {
	return []Algorithm{
		AlgorithmBaseline, AlgorithmClustering,
		AlgorithmCubeMasking, AlgorithmCubeMaskingPrefetch, AlgorithmHybrid,
	}
}

func cancelTestOptions() Options {
	opts := Options{Tasks: TaskAll}
	opts.Clustering.Config.Seed = 7
	return opts
}

// TestCancelSweepSerialPrefix is the acceptance sweep: for every serial
// algorithm, cancel the run at EVERY emission index and assert that (a)
// the error, when the cancellation was observed in time, is a
// *CanceledError matching ErrCanceled, and (b) the emitted stream is an
// exact byte prefix of the uncanceled run's emission stream — partial
// results are salvageable serial-order prefixes, never garbage.
func TestCancelSweepSerialPrefix(t *testing.T) {
	leakcheck.Check(t)
	c := gen.RealWorld(gen.RealWorldConfig{TotalObs: 90, Seed: 3})
	s, err := NewSpace(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range serialAlgorithms() {
		want := &eventSink{}
		if err := Compute(s, alg, cancelTestOptions(), want); err != nil {
			t.Fatalf("%s: full run: %v", alg, err)
		}
		total := countEmissions(want.buf)
		if total <= 0 {
			t.Fatalf("%s: degenerate input: %d emissions", alg, total)
		}
		// Every emission index is covered up to sweepCap reruns; beyond
		// that the sweep samples evenly so the test stays inside a CI
		// budget while still hitting first, last and every stride bucket.
		step := 1
		const sweepCap = 300
		if total > sweepCap {
			step = total / sweepCap
		}
		canceledRuns := 0
		for k := 1; k <= total; k += step {
			ctx, cancel := context.WithCancel(context.Background())
			sink := &cancelSink{inner: &eventSink{}, remaining: k, cancel: cancel}
			err := ComputeCtx(ctx, s, alg, cancelTestOptions(), sink)
			cancel()
			if err != nil {
				if !errors.Is(err, ErrCanceled) {
					t.Fatalf("%s k=%d: error does not match ErrCanceled: %v", alg, k, err)
				}
				var ce *CanceledError
				if !errors.As(err, &ce) || !errors.Is(ce.Cause, context.Canceled) {
					t.Fatalf("%s k=%d: want *CanceledError with cause context.Canceled, got %v", alg, k, err)
				}
				canceledRuns++
			}
			if !bytes.HasPrefix(want.buf, sink.inner.buf) {
				t.Fatalf("%s k=%d: canceled stream (%d bytes) is not a prefix of the full stream (%d bytes)",
					alg, k, len(sink.inner.buf), len(want.buf))
			}
			if err == nil && !bytes.Equal(sink.inner.buf, want.buf) {
				t.Fatalf("%s k=%d: uncanceled run diverged from the reference stream", alg, k)
			}
		}
		if canceledRuns == 0 && total > 1 {
			t.Errorf("%s: no run in the %d-index sweep was actually canceled (stride too coarse for the fixture?)", alg, total)
		}
	}
}

// TestDeadlineCause: a run under an expired context.WithTimeout cancels
// with cause context.DeadlineExceeded.
func TestDeadlineCause(t *testing.T) {
	leakcheck.Check(t)
	c := gen.RealWorld(gen.RealWorldConfig{TotalObs: 600, Seed: 3})
	s, err := NewSpace(c)
	if err != nil {
		t.Fatal(err)
	}
	// A sink slow enough that the deadline always expires mid-run.
	slow := &slowSink{delay: 200 * time.Microsecond}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	err = ComputeCtx(ctx, s, AlgorithmBaseline, cancelTestOptions(), slow)
	if err == nil {
		t.Skip("fixture completed inside the deadline; nothing to assert")
	}
	var ce *CanceledError
	if !errors.As(err, &ce) || !errors.Is(ce.Cause, context.DeadlineExceeded) {
		t.Fatalf("want *CanceledError with cause DeadlineExceeded, got %v", err)
	}
	if ce.Pairs <= 0 {
		t.Errorf("CanceledError.Pairs = %d, want > 0", ce.Pairs)
	}
}

// slowSink delays every emission; it turns fast fixtures into runs long
// enough for a deadline to expire mid-run.
type slowSink struct{ delay time.Duration }

func (s *slowSink) Full(a, b int)                    { time.Sleep(s.delay) }
func (s *slowSink) Compl(a, b int)                   { time.Sleep(s.delay) }
func (s *slowSink) Partial(a, b int, degree float64) { time.Sleep(s.delay) }

// cancelAfter is an Options.Obs recorder that cancels the run's context on
// its k-th Count call: the run stops itself, from its own counter flushes,
// without a wrapper around its sink. A serial run flushes counters at fixed
// points of its scan, so where it stops is reproducible.
type cancelAfter struct {
	obsv.Nop
	left   atomic.Int64
	cancel context.CancelFunc
}

// newCancelAfter returns a context and the recorder that cancels it after
// k Count calls; the test must call stop when done with the context.
func newCancelAfter(k int64) (ctx context.Context, rec *cancelAfter, stop context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	rec = &cancelAfter{cancel: cancel}
	rec.left.Store(k)
	return ctx, rec, cancel
}

func (c *cancelAfter) Count(string, int64) {
	if c.left.Add(-1) == 0 {
		c.cancel()
	}
}

// relationships keys every pair of a Result by its set (0 full, 1
// partial, 2 compl) and its members.
func relationships(res *Result) map[[3]int]bool {
	m := map[[3]int]bool{}
	for kind, ps := range [][]Pair{res.FullSet, res.PartialSet, res.ComplSet} {
		for _, p := range ps {
			m[[3]int{kind, p.A, p.B}] = true
		}
	}
	return m
}

// checkSalvage fails the test unless every pair got holds is one of the
// full run's relationships and none arrived twice.
func checkSalvage(t *testing.T, what string, got *Result, full map[[3]int]bool) {
	t.Helper()
	seen := map[[3]int]bool{}
	for kind, ps := range [][]Pair{got.FullSet, got.PartialSet, got.ComplSet} {
		for _, p := range ps {
			k := [3]int{kind, p.A, p.B}
			if !full[k] {
				t.Fatalf("%s: pair %v (set %d) is not in the full run", what, p, kind)
			}
			if seen[k] {
				t.Fatalf("%s: pair %v (set %d) reached the sink twice", what, p, kind)
			}
			seen[k] = true
		}
	}
}

// TestParallelCancelDirectSalvage: canceled pooled runs deliver complete
// shards plus already-flushed chunks — every salvaged relationship also
// appears in the full run, exactly once, even though the stream is not an
// ordered prefix.
func TestParallelCancelDirectSalvage(t *testing.T) {
	leakcheck.Check(t)
	c := gen.RealWorld(gen.RealWorldConfig{TotalObs: 400, Seed: 3})
	s, err := NewSpace(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{AlgorithmBaseline, AlgorithmClustering, AlgorithmParallel} {
		full := NewResult()
		mustCompute(t, s, alg, serialOptions(cancelTestOptions()), full)
		inFull := relationships(full)
		canceled := 0
		for _, shard := range []int{0, 2} {
			// Pooled workers flush counters per shard and inside it:
			// cancel early in the first shards, then a few shards later.
			ctx, rec, stop := newCancelAfter(int64(20 + 200*shard))
			opts := cancelTestOptions()
			opts.Workers = 4
			opts.Obs = rec
			got := NewResult()
			err := ComputeCtx(ctx, s, alg, opts, got)
			stop()
			s.SetRecorder(nil)
			if err != nil {
				if !errors.Is(err, ErrCanceled) {
					t.Fatalf("%s shard=%d: %v", alg, shard, err)
				}
				canceled++
			}
			checkSalvage(t, fmt.Sprintf("%s shard=%d", alg, shard), got, inFull)
		}
		if canceled == 0 {
			t.Errorf("%s: no run was canceled", alg)
		}
	}
}

// panicAtCall forwards Sink calls to inner and panics, instead of
// forwarding, on call k: a caller's sink that fails once.
type panicAtCall struct {
	inner    Sink
	k, calls int
}

func (p *panicAtCall) call() {
	p.calls++
	if p.calls == p.k {
		panic(fmt.Sprintf("sink fault at call %d", p.k))
	}
}

func (p *panicAtCall) Full(a, b int)  { p.call(); p.inner.Full(a, b) }
func (p *panicAtCall) Compl(a, b int) { p.call(); p.inner.Compl(a, b) }
func (p *panicAtCall) Partial(a, b int, degree float64) {
	p.call()
	p.inner.Partial(a, b, degree)
}

// computeRecovering runs ComputeCtx and returns the value it panicked
// with, if it did, instead of unwinding the test.
func computeRecovering(ctx context.Context, s *Space, alg Algorithm, opts Options, sink Sink) (panicked any, err error) {
	defer func() { panicked = recover() }()
	return nil, ComputeCtx(ctx, s, alg, opts, sink)
}

// TestPooledPanicReachesCaller: a pooled run whose sink panics once fails
// as a serial run does — Compute panics on the caller's goroutine, with
// the sink's value and the worker's stack — and nothing reaches the sink
// twice. A clean run on the same Space afterwards still equals the serial
// run, so the pooled tapes went back intact.
func TestPooledPanicReachesCaller(t *testing.T) {
	leakcheck.Check(t)
	c := gen.RealWorld(gen.RealWorldConfig{TotalObs: 400, Seed: 3})
	s, err := NewSpace(c)
	if err != nil {
		t.Fatal(err)
	}
	forEachGOMAXPROCS(t, func(t *testing.T) {
		for _, alg := range []Algorithm{AlgorithmBaseline, AlgorithmClustering, AlgorithmParallel} {
			want := NewResult()
			mustCompute(t, s, alg, serialOptions(cancelTestOptions()), want)
			want.Sort()
			inFull := relationships(want)
			opts := cancelTestOptions()
			opts.Workers = 4
			for _, k := range []int{10, 1000, 3000} {
				what := fmt.Sprintf("%s k=%d", alg, k)
				got := NewResult()
				v, err := computeRecovering(context.Background(), s, alg, opts, &panicAtCall{inner: got, k: k})
				if v == nil {
					t.Errorf("%s: Compute returned err=%v; want a panic on the caller's goroutine", what, err)
				} else if msg := fmt.Sprint(v); !strings.Contains(msg, fmt.Sprintf("sink fault at call %d", k)) ||
					!strings.Contains(msg, "(*panicAtCall).call") {
					t.Errorf("%s: panic value does not name the sink's panic and its worker stack:\n%s", what, msg)
				}
				checkSalvage(t, what, got, inFull)

				clean := NewResult()
				mustCompute(t, s, alg, opts, clean)
				clean.Sort()
				sameResult(t, what+": clean run afterwards", clean, want)
			}
		}
	})
}

// TestComputeCorpusCtxSalvage: the façade returns the sorted partial
// result next to the CanceledError, and the partial sets are subsets of
// the full run's.
func TestComputeCorpusCtxSalvage(t *testing.T) {
	leakcheck.Check(t)
	c := gen.RealWorld(gen.RealWorldConfig{TotalObs: 300, Seed: 3})
	_, full, err := ComputeCorpusCtx(context.Background(), c, AlgorithmBaseline, Options{Tasks: TaskAll})
	if err != nil {
		t.Fatal(err)
	}
	// The baseline flushes two counters per outer row: cancel ten rows in.
	ctx, rec, stop := newCancelAfter(20)
	defer stop()
	s, partial, cerr := ComputeCorpusCtx(ctx, c, AlgorithmBaseline, Options{Tasks: TaskAll, Obs: rec})
	if !errors.Is(cerr, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", cerr)
	}
	if s == nil || partial == nil {
		t.Fatal("canceled ComputeCorpusCtx must still return the space and the partial result")
	}
	if len(partial.FullSet) > len(full.FullSet) || len(partial.PartialSet) > len(full.PartialSet) ||
		len(partial.ComplSet) > len(full.ComplSet) {
		t.Fatal("partial result larger than the full result")
	}
	seen := map[Pair]bool{}
	for _, p := range full.FullSet {
		seen[p] = true
	}
	for _, p := range partial.FullSet {
		if !seen[p] {
			t.Fatalf("salvaged pair %v not in the full run's FullSet", p)
		}
	}
}

// TestCanceledRunCounter: canceled runs are visible as run.canceled in
// the recorder.
func TestCanceledRunCounter(t *testing.T) {
	leakcheck.Check(t)
	c := gen.RealWorld(gen.RealWorldConfig{TotalObs: 300, Seed: 3})
	s, err := NewSpace(c)
	if err != nil {
		t.Fatal(err)
	}
	col := obsv.NewCollector()
	ctx, rec, stop := newCancelAfter(1)
	defer stop()
	opts := Options{Tasks: TaskAll, Obs: obsv.Multi(col, rec)}
	if err := ComputeCtx(ctx, s, AlgorithmBaseline, opts, &eventSink{}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	s.SetRecorder(nil)
	if col.Snapshot()[CtrRunCanceled] == 0 {
		t.Error("run.canceled counter not incremented")
	}
}

// TestGuardNilFastPath: the unguarded serial baseline allocates nothing
// per run beyond its pooled scratch, through both doors — Compute, and
// ComputeCtx with a context that can never be canceled (newGuard returns
// nil for it). This is the gate on the cancellation layer's fast path;
// TestKernelAllocations holds the same ceiling at n = 600 and 2 400.
func TestGuardNilFastPath(t *testing.T) {
	c := gen.RealWorld(gen.RealWorldConfig{TotalObs: 200, Seed: 3})
	s, err := NewSpace(c)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Tasks: TaskAll}
	for name, run := range map[string]func(Sink) error{
		"Compute":    func(cnt Sink) error { return Compute(s, AlgorithmBaseline, opts, cnt) },
		"ComputeCtx": func(cnt Sink) error { return ComputeCtx(context.Background(), s, AlgorithmBaseline, opts, cnt) },
	} {
		// A GC between the warm-up and the measurement can drain the
		// scratch pool and charge its refill to the measured runs, so take
		// the best of a few attempts, re-warming before each.
		best := float64(1 << 30)
		for attempt := 0; attempt < 5 && best > 1; attempt++ {
			if err := run(&Counter{}); err != nil { // warm the scratch pool
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				_ = run(&Counter{})
			})
			if allocs < best {
				best = allocs
			}
		}
		// One allocation for the &Counter{} itself; the scan must add none.
		if best > 1 {
			t.Errorf("%s: unguarded serial baseline allocates %.2f objects/run, want <= 1", name, best)
		}
	}
}
