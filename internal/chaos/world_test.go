package chaos

import (
	"fmt"
	"runtime"
	"testing"
)

// fatalRecorder is a testing.TB whose Fatalf records instead of failing.
type fatalRecorder struct {
	testing.TB
	msg string
}

func (r *fatalRecorder) Fatalf(format string, a ...any) {
	r.msg = fmt.Sprintf(format, a...)
	runtime.Goexit()
}

// TestFailuresNameTheirSeed pins the repro contract: whatever a script
// fails with, the message starts with the seed that replays it.
func TestFailuresNameTheirSeed(t *testing.T) {
	rec := &fatalRecorder{TB: t}
	done := make(chan struct{})
	go func() {
		defer close(done)
		w := New(rec, Options{Seed: 99})
		defer w.Close()
		w.must(fmt.Errorf("disk on fire"), "round 3 restart")
	}()
	<-done
	if want := "seed=99: round 3 restart: disk on fire"; rec.msg != want {
		t.Fatalf("failure message %q, want %q", rec.msg, want)
	}
}
