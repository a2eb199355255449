package serve

import (
	"testing"
	"time"
)

// TestBackoffDoublesCapsAndResets pins the shared backoff policy: the
// first delay is a jitter of Base, each following delay doubles the
// nominal value, nothing exceeds Max, and Reset starts the ladder over.
func TestBackoffDoublesCapsAndResets(t *testing.T) {
	bo := Backoff{Base: 100 * time.Millisecond, Max: 400 * time.Millisecond}
	nominal := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond,
		400 * time.Millisecond, 400 * time.Millisecond, // capped
	}
	for round := 0; round < 2; round++ { // second round proves Reset
		for i, want := range nominal {
			got := bo.Next()
			if got < want/2 || got >= want {
				t.Fatalf("round %d step %d: Next() = %v, want jittered in [%v, %v)", round, i, got, want/2, want)
			}
			if cur := bo.Current(); cur != want {
				t.Fatalf("round %d step %d: Current() = %v, want %v", round, i, cur, want)
			}
		}
		bo.Reset()
	}
}

// TestJitteredRange: jitter spreads over [d/2, d) so synchronized
// clients desynchronize.
func TestJitteredRange(t *testing.T) {
	d := 8 * time.Second
	for i := 0; i < 100; i++ {
		j := Jittered(d)
		if j < d/2 || j >= d {
			t.Fatalf("jittered(%v) = %v outside [%v, %v)", d, j, d/2, d)
		}
	}
}

// TestBackoffZeroValueDefaults: the zero value is usable and never
// returns a zero delay.
func TestBackoffZeroValueDefaults(t *testing.T) {
	var bo Backoff
	d := bo.Next()
	if d <= 0 {
		t.Fatalf("zero-value Next() = %v", d)
	}
	for i := 0; i < 20; i++ {
		if d = bo.Next(); d <= 0 {
			t.Fatalf("step %d: Next() = %v", i, d)
		}
	}
}
