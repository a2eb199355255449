package gate

import (
	"sync"
	"time"

	"rdfcube/internal/serve"
)

// breaker is a per-target consecutive-failure circuit breaker. When a
// target fails repeatedly (an unreachable or panicking shard) the breaker
// trips into a degraded posture — callers are refused immediately with a
// jittered retry hint instead of burning budget re-failing. After a
// backoff the breaker half-opens: exactly one probe call is admitted;
// success closes the circuit, failure re-opens it with doubled (capped,
// jittered) backoff.
//
// All methods are safe for concurrent use.
type breaker struct {
	mu        sync.Mutex
	threshold int           // consecutive failures that trip the circuit
	bo        serve.Backoff // doubling, capped, jittered open-interval schedule

	consecutive int
	state       breakerState
	openUntil   time.Time
	probing     bool
}

type breakerState uint8

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (st breakerState) String() string {
	switch st {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	}
	return "?"
}

// newBreaker builds a breaker; threshold<=0 means 3, base<=0 means 5s.
// The cap is 16× the base (the Backoff default).
func newBreaker(threshold int, base time.Duration) *breaker {
	if threshold <= 0 {
		threshold = 3
	}
	if base <= 0 {
		base = 5 * time.Second
	}
	return &breaker{threshold: threshold, bo: serve.Backoff{Base: base}}
}

// Allow reports whether a guarded call may proceed now. When the circuit
// is open it returns false and how long the caller should tell the client
// to wait. In half-open state exactly one caller is admitted as the probe;
// the rest are refused until the probe reports.
func (b *breaker) Allow(now time.Time) (ok bool, retryAfter time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true, 0
	case breakerOpen:
		if now.Before(b.openUntil) {
			return false, b.openUntil.Sub(now)
		}
		b.state = breakerHalfOpen
		b.probing = true
		return true, 0
	default: // half-open
		if b.probing {
			return false, serve.Jittered(b.bo.Current())
		}
		b.probing = true
		return true, 0
	}
}

// Success reports a completed call: the circuit closes and the failure
// streak resets.
func (b *breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = breakerClosed
	b.consecutive = 0
	b.probing = false
	b.bo.Reset()
}

// Failure reports a failed call: a failed half-open probe re-opens the
// circuit, and the threshold-th consecutive failure trips it open.
func (b *breaker) Failure(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecutive++
	switch b.state {
	case breakerHalfOpen:
		// The probe failed: re-open with doubled, capped backoff.
		b.state = breakerOpen
		b.probing = false
		b.openUntil = now.Add(b.bo.Next())
	case breakerClosed:
		if b.consecutive >= b.threshold {
			b.state = breakerOpen
			b.openUntil = now.Add(b.bo.Next())
		}
	}
}

// Snapshot returns the state name and failure streak for stats pages.
func (b *breaker) Snapshot() (state string, consecutive int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state.String(), b.consecutive
}
