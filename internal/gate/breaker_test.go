package gate

import (
	"testing"
	"time"
)

// TestBreakerStateMachine drives the circuit breaker through its full
// closed → open → half-open → closed cycle, including the doubled
// backoff of a failed probe.
func TestBreakerStateMachine(t *testing.T) {
	b := newBreaker(2, 100*time.Millisecond)
	now := time.Now()

	if ok, _ := b.Allow(now); !ok {
		t.Fatal("closed breaker must allow")
	}
	b.Failure(now)
	if st, _ := b.Snapshot(); st != "closed" {
		t.Fatalf("one failure below threshold must keep the circuit closed, got %s", st)
	}
	b.Failure(now)
	if st, _ := b.Snapshot(); st != "open" {
		t.Fatalf("want open after threshold failures, got %s", st)
	}
	if ok, wait := b.Allow(now); ok || wait <= 0 {
		t.Fatalf("open breaker must refuse with a positive retry hint, got ok=%v wait=%v", ok, wait)
	}

	// Past the backoff: exactly one half-open probe is admitted.
	later := now.Add(time.Second)
	if ok, _ := b.Allow(later); !ok {
		t.Fatal("expired open interval must admit a probe")
	}
	if ok, _ := b.Allow(later); ok {
		t.Fatal("second caller during the probe must be refused")
	}

	// Probe fails: re-open with doubled backoff.
	b.Failure(later)
	if st, _ := b.Snapshot(); st != "open" {
		t.Fatalf("failed probe must re-open, got %s", st)
	}
	if b.bo.Current() != 200*time.Millisecond {
		t.Fatalf("failed probe must double the backoff, got %v", b.bo.Current())
	}

	// Next probe succeeds: closed, streak reset.
	if ok, _ := b.Allow(later.Add(time.Second)); !ok {
		t.Fatal("second probe must be admitted")
	}
	b.Success()
	if st, fails := b.Snapshot(); st != "closed" || fails != 0 {
		t.Fatalf("successful probe must close and reset, got %s/%d", st, fails)
	}
}
