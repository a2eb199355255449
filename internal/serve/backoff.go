package serve

import (
	"math/rand/v2"
	"time"
)

// Backoff is the doubling, capped, jittered retry policy every reconnect
// loop in the tree shares (the gate's per-target breaker interval, the
// replica follower's reconnect) instead of growing ad-hoc sleep loops.
//
// Next returns the delay to wait before the attempt it is called for:
// the first call returns a jittered Base, each later call doubles the
// un-jittered interval up to Max. Reset rearms it after a success.
// A Backoff is not goroutine-safe; each retry loop owns its own.
type Backoff struct {
	// Base is the initial interval; zero means 100ms.
	Base time.Duration
	// Max caps the un-jittered interval; zero means 16× Base.
	Max time.Duration

	cur time.Duration
}

func (b *Backoff) base() time.Duration {
	if b.Base <= 0 {
		return 100 * time.Millisecond
	}
	return b.Base
}

func (b *Backoff) max() time.Duration {
	if b.Max <= 0 {
		return 16 * b.base()
	}
	return b.Max
}

// Next advances the schedule and returns the jittered delay before the
// next attempt.
func (b *Backoff) Next() time.Duration {
	if b.cur <= 0 {
		b.cur = b.base()
	} else {
		b.cur *= 2
	}
	if b.cur > b.max() {
		b.cur = b.max()
	}
	return Jittered(b.cur)
}

// Current reports the un-jittered interval the schedule has reached
// (zero before the first Next).
func (b *Backoff) Current() time.Duration { return b.cur }

// Reset rearms the schedule after a success: the next Next returns the
// jittered Base again.
func (b *Backoff) Reset() { b.cur = 0 }

// Jittered spreads d over [d/2, d) so clients that failed together do
// not all retry together (the synchronized-retry stampede).
func Jittered(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	half := d / 2
	return half + time.Duration(rand.Int64N(int64(half)))
}
