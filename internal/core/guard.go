package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"
)

// Cooperative cancellation. The paper's algorithms are Θ(n²) pair scans;
// run inside a long-lived daemon they must be interruptible: a request
// deadline, a SIGTERM, or an exhausted work budget has to be able to stop
// a scan mid-flight without corrupting state and without losing the work
// already done. The mechanism is a *guard threaded through every kernel:
//
//   - The hot loops accumulate pair counts locally (they already do, for
//     the obsv counters) and poll the guard only every guardPairStride
//     ordered pairs, so the no-guard path — plain Compute with no
//     budgets — costs one predictable nil-check per pair and zero
//     allocations (TestGuardNilFastPath, TestKernelAllocations).
//   - A tripped guard makes the kernel return a *CanceledError (matching
//     errors.Is(err, ErrCanceled)). What is already in the caller's sink
//     stays usable: a serial kernel emits in order and stops, so its sink
//     holds an exact prefix of the full emission stream; a pooled run
//     holds its completed shards plus the whole-event chunks in-flight
//     shards had flushed (see runShardPool) — a subset of the full run's
//     set, exactly once. Partial results are salvageable, never garbage.
//   - Poll points sit at fixed pair counts, so a serial run canceled by a
//     MaxPairs budget is bit-for-bit reproducible.
//
// Guards are built by newGuard from a context plus Options budgets; a nil
// *guard (the zero-cost path) is a valid receiver for every method.

// guardPairStride is the number of ordered pair comparisons between
// cooperative cancellation checks. Small enough that cancellation latency
// stays in the microsecond range on any hardware, large enough that the
// atomic add and context poll vanish against the Θ(stride · p) bit-vector
// work between checks.
const guardPairStride = 4096

// ErrCanceled is the sentinel matched by errors.Is for every cooperative
// abort: context cancellation, deadline expiry, pair-budget exhaustion and
// watchdog stalls all return a *CanceledError wrapping the specific cause.
var ErrCanceled = errors.New("core: run canceled")

// ErrPairBudget is the cause when Options.MaxPairs ran out.
var ErrPairBudget = errors.New("core: pair budget exhausted")

// ErrStalled is the cause when the run watchdog observed no pair progress
// for Options.StallTimeout.
var ErrStalled = errors.New("core: run stalled: no pair progress")

// CanceledError reports a cooperatively aborted run. The partial result
// is not carried in the error but in the caller's sink: an exact,
// deterministic prefix of the emission stream for a serial run, a subset
// of the full run's set for a pooled one (see ComputeCtx).
type CanceledError struct {
	// Cause is the specific trigger: context.Canceled,
	// context.DeadlineExceeded, ErrPairBudget or ErrStalled.
	Cause error
	// Pairs is the count of ordered observation pairs charged to the run
	// before the trip — the budget position of the cancellation.
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

// ShardPanicError reports a parallel shard whose scan panicked twice: once
// under a worker and once more during the serial retry. The fingerprint
// identifies the shard's input deterministically so the failure is
// reproducible from a bug report.
type ShardPanicError struct {
	// Shard is the shard index in the algorithm's serial iteration order.
	Shard int
	// Fingerprint is a stable hash of the shard's input (kind, index
	// range, member indices) — enough to re-select the failing work item.
	Fingerprint string
	// Value is the recovered panic value of the serial retry.
	Value any
}

// Error implements error.
func (e *ShardPanicError) Error() string {
	return fmt.Sprintf("core: shard %d (%s) panicked twice: %v", e.Shard, e.Fingerprint, e.Value)
}

// guard enforces cooperative cancellation and run budgets. All methods
// are safe on a nil receiver (the zero-cost "no limits" path) and safe
// for concurrent use by worker pools.
type guard struct {
	ctx      context.Context
	done     <-chan struct{}
	maxPairs int64
	pairs    atomic.Int64

	tripped atomic.Bool
	mu      sync.Mutex
	cause   *CanceledError

	// watchdog
	stall    time.Duration
	stop     chan struct{}
	watchWG  sync.WaitGroup
	watching bool
}

// newGuard builds a guard for a run, or returns nil when there is nothing
// to enforce: a context that can never be canceled and no budgets means
// the kernels keep their unguarded fast path.
func newGuard(ctx context.Context, maxPairs int64, stall time.Duration) *guard {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	if done == nil && maxPairs <= 0 && stall <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return &guard{ctx: ctx, done: done, maxPairs: maxPairs, stall: stall}
}

// charge adds delta ordered pairs to the run's progress and returns the
// cancellation error if the run must stop. Call it roughly every
// guardPairStride pairs; exact cadence only affects cancellation latency.
func (g *guard) charge(delta int64) error {
	if g == nil {
		return nil
	}
	return g.check(g.pairs.Add(delta))
}

// poll checks for cancellation without charging progress — the poll point
// for phases that do no pair work (lattice sweeps over pruned pairs,
// cluster assignment).
func (g *guard) poll() error {
	if g == nil {
		return nil
	}
	return g.check(g.pairs.Load())
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

func (g *guard) check(total int64) error {
	if g.tripped.Load() {
		return g.err()
	}
	if g.maxPairs > 0 && total >= g.maxPairs {
		return g.trip(ErrPairBudget)
	}
	if g.done != nil {
		select {
		case <-g.done:
			cause := context.Cause(g.ctx)
			if cause == nil {
				cause = context.Canceled
			}
			return g.trip(cause)
		default:
		}
	}
	return nil
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

// startWatchdog spawns the progress-stall detector: a goroutine sampling
// the run's pair counter (the same quantity obsv exports as
// obs.pairs.compared) every stall/4 and tripping the guard with ErrStalled
// when a full StallTimeout passes without the counter moving. The trip is
// observed at the kernels' next poll point — the watchdog converts "silent
// no-progress" into a typed error but cannot interrupt a hard-stuck
// goroutine (nothing can, cooperatively).
func (g *guard) startWatchdog() {
	if g == nil || g.stall <= 0 {
		return
	}
	g.stop = make(chan struct{})
	g.watching = true
	g.watchWG.Add(1)
	go func() {
		defer g.watchWG.Done()
		tick := g.stall / 4
		if tick < time.Millisecond {
			tick = time.Millisecond
		}
		t := time.NewTicker(tick)
		defer t.Stop()
		last := g.pairs.Load()
		lastMove := time.Now()
		for {
			select {
			case <-g.stop:
				return
			case <-t.C:
				cur := g.pairs.Load()
				if cur != last {
					last, lastMove = cur, time.Now()
					continue
				}
				if time.Since(lastMove) >= g.stall {
					g.trip(ErrStalled)
					return
				}
			}
		}
	}()
}

// stopWatchdog terminates the stall detector and waits for it, so a
// finished run leaves no goroutine behind (the leakcheck invariant).
func (g *guard) stopWatchdog() {
	if g == nil || !g.watching {
		return
	}
	close(g.stop)
	g.watchWG.Wait()
	g.watching = false
}

// shardFingerprint hashes a shard's identity — kind, serial index, and
// the observation indices it covers — into a short stable token for
// ShardPanicError reports.
func shardFingerprint(kind string, shard int, lo, hi int, members []int) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d:%d", kind, shard, lo, hi)
	for _, m := range members {
		var b [4]byte
		b[0], b[1], b[2], b[3] = byte(m), byte(m>>8), byte(m>>16), byte(m>>24)
		h.Write(b[:])
	}
	if members != nil {
		return fmt.Sprintf("%s shard %d (%d members) fp=%016x", kind, shard, len(members), h.Sum64())
	}
	return fmt.Sprintf("%s shard %d rows [%d,%d) fp=%016x", kind, shard, lo, hi, h.Sum64())
}
