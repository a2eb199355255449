package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Cooperative cancellation. The paper's algorithms are Θ(n²) pair scans;
// run inside a long-lived process they must be interruptible: a SIGINT,
// a SIGTERM or a caller's deadline has to be able to stop a scan
// mid-flight without corrupting state and without losing the work already
// done. The run's context is the only stop signal; a caller that wants a
// deadline wraps its context in context.WithTimeout. The mechanism is a
// *guard threaded through every kernel:
//
//   - The hot loops accumulate pair counts locally (they already do, for
//     the obsv counters) and poll the guard only every guardPairStride
//     ordered pairs, so the no-guard path — a context that can never be
//     canceled — costs one predictable nil-check per pair and zero
//     allocations (TestGuardNilFastPath, TestKernelAllocations).
//   - A tripped guard makes the kernel return a *CanceledError (matching
//     errors.Is(err, ErrCanceled)). What is already in the caller's sink
//     stays usable: a serial kernel emits in order and stops, so its sink
//     holds an exact prefix of the full emission stream; a pooled run
//     holds its completed shards plus the whole-event chunks in-flight
//     shards had flushed (see runShardPool) — a subset of the full run's
//     set, exactly once. Partial results are salvageable, never garbage.
//
// Guards are built by newGuard from the run's context; a nil *guard (the
// zero-cost path) is a valid receiver for every method.

// guardPairStride is the number of ordered pair comparisons between
// cooperative cancellation checks. Small enough that cancellation latency
// stays in the microsecond range on any hardware, large enough that the
// atomic add and context poll vanish against the Θ(stride · p) bit-vector
// work between checks.
const guardPairStride = 4096

// ErrCanceled is the sentinel matched by errors.Is for every cooperative
// abort: a canceled or expired context returns a *CanceledError wrapping
// the context's cause.
var ErrCanceled = errors.New("core: run canceled")

// CanceledError reports a cooperatively aborted run. The partial result
// is not carried in the error but in the caller's sink: an exact prefix of
// the emission stream for a serial run, a subset of the full run's set
// for a pooled one (see ComputeCtx).
type CanceledError struct {
	// Cause is context.Cause of the run's context: context.Canceled,
	// context.DeadlineExceeded, or the cause the caller canceled with.
	Cause error
	// Pairs is the count of ordered observation pairs charged to the run
	// before the trip.
	Pairs int64
}

// Error implements error.
func (e *CanceledError) Error() string {
	return fmt.Sprintf("core: run canceled after %d ordered pairs: %v", e.Pairs, e.Cause)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *CanceledError) Unwrap() error { return e.Cause }

// Is matches the ErrCanceled sentinel.
func (e *CanceledError) Is(target error) bool { return target == ErrCanceled }

// guard enforces cooperative cancellation. All methods are safe on a nil
// receiver (the zero-cost "cannot be canceled" path) and safe for
// concurrent use by worker pools.
type guard struct {
	ctx   context.Context
	done  <-chan struct{}
	pairs atomic.Int64

	tripped atomic.Bool
	mu      sync.Mutex
	cause   *CanceledError
}

// newGuard builds a guard for a run, or returns nil when ctx can never be
// canceled: the kernels then keep their unguarded fast path.
func newGuard(ctx context.Context) *guard {
	if ctx == nil || ctx.Done() == nil {
		return nil
	}
	return &guard{ctx: ctx, done: ctx.Done()}
}

// charge adds delta ordered pairs to the run's progress and returns the
// cancellation error if the run must stop. Call it roughly every
// guardPairStride pairs; exact cadence only affects cancellation latency.
func (g *guard) charge(delta int64) error {
	if g == nil {
		return nil
	}
	g.pairs.Add(delta)
	return g.poll()
}

// poll checks for cancellation without charging progress — the poll point
// for phases that do no pair work (lattice sweeps over pruned pairs,
// cluster assignment).
func (g *guard) poll() error {
	if g == nil {
		return nil
	}
	if g.tripped.Load() {
		return g.err()
	}
	select {
	case <-g.done:
		return g.trip(context.Cause(g.ctx))
	default:
		return nil
	}
}

// pollFunc adapts poll for substrates that accept a plain check callback
// (the clustering package). Returns nil on a nil guard so callers can
// assign unconditionally.
func (g *guard) pollFunc() func() error {
	if g == nil {
		return nil
	}
	return g.poll
}

// trip records the first cause and returns the run's CanceledError; later
// trips keep the original cause so every caller sees one consistent error.
func (g *guard) trip(cause error) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.cause == nil {
		g.cause = &CanceledError{Cause: cause, Pairs: g.pairs.Load()}
		g.tripped.Store(true)
	}
	return g.cause
}

// err returns the recorded CanceledError (nil before any trip).
func (g *guard) err() error {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.cause == nil {
		return nil
	}
	return g.cause
}

// isTripped reports whether the run must stop, without running checks —
// the cheap flag workers consult before claiming another shard.
func (g *guard) isTripped() bool { return g != nil && g.tripped.Load() }
