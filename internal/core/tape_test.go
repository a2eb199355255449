package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// randTapeStream drives a random event sequence into both sinks, so the
// tape encoding can be compared differentially against a direct recording.
func randTapeStream(rng *rand.Rand, n int, sinks ...Sink) {
	for e := 0; e < n; e++ {
		a, b := rng.Intn(1<<20), rng.Intn(1<<20)
		switch rng.Intn(3) {
		case 0:
			for _, s := range sinks {
				s.Full(a, b)
			}
		case 1:
			for _, s := range sinks {
				s.Compl(a, b)
			}
		default:
			deg := rng.Float64()
			for _, s := range sinks {
				s.Partial(a, b, deg)
			}
		}
	}
}

// TestTapeCodecRoundTrip is the property test of the varint tape codec:
// random event streams encode onto a tape and decode back into a stream
// that is BYTE-EXACT against a direct recording of the same calls —
// including degrees (bit-preserved through Float64bits). 200 trials
// across stream lengths.
func TestTapeCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		tp := borrowTape()
		want := &eventSink{}
		randTapeStream(rng, rng.Intn(50), tp, want)

		got := &eventSink{}
		if err := decodeTape(tp.buf, got); err != nil {
			t.Fatalf("trial %d: decode of freshly encoded tape failed: %v", trial, err)
		}
		if !bytes.Equal(got.buf, want.buf) {
			t.Fatalf("trial %d: decoded stream differs from direct recording (%d vs %d bytes)",
				trial, len(got.buf), len(want.buf))
		}
		releaseTape(tp)
	}
}

// TestTapeCodecSpecialDegrees pins bit-exact degree transport for values a
// lossy encoding would mangle: denormals, negative zero, infinities, NaN.
func TestTapeCodecSpecialDegrees(t *testing.T) {
	degrees := []float64{0, math.Copysign(0, -1), 0.5, 1.0 / 3.0,
		math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	tp := borrowTape()
	defer releaseTape(tp)
	for _, d := range degrees {
		tp.Partial(1, 2, d)
	}
	i := 0
	err := decodeTape(tp.buf, sinkFuncs{partial: func(a, b int, deg float64) {
		if math.Float64bits(deg) != math.Float64bits(degrees[i]) {
			t.Errorf("degree %d: got bits %x, want %x", i, math.Float64bits(deg), math.Float64bits(degrees[i]))
		}
		i++
	}})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(degrees) {
		t.Fatalf("decoded %d events, want %d", i, len(degrees))
	}
}

// sinkFuncs adapts closures to the Sink interface for focused decode tests.
type sinkFuncs struct {
	full, compl func(a, b int)
	partial     func(a, b int, degree float64)
}

func (s sinkFuncs) Full(a, b int) {
	if s.full != nil {
		s.full(a, b)
	}
}
func (s sinkFuncs) Compl(a, b int) {
	if s.compl != nil {
		s.compl(a, b)
	}
}
func (s sinkFuncs) Partial(a, b int, degree float64) {
	if s.partial != nil {
		s.partial(a, b, degree)
	}
}

// TestTapeCodecDifferentialResult: replaying a tape into a Result produces
// exactly the Result a direct serial run of the same calls would build —
// sets and degrees.
func TestTapeCodecDifferentialResult(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 50; trial++ {
		tp := borrowTape()
		want := newNaiveResult()
		randTapeStream(rng, 40, tp, want)

		got := newNaiveResult()
		if err := decodeTape(tp.buf, got); err != nil {
			t.Fatal(err)
		}
		releaseTape(tp)
		want.Sort()
		got.Sort()
		sameResult(t, fmt.Sprintf("trial %d", trial), got.Result, want.Result)
		if !reflect.DeepEqual(got.degree, want.degree) {
			t.Fatalf("trial %d: replayed degrees differ from the direct recording", trial)
		}
	}
}

// TestDecodeTapeTruncations: every truncation of a valid tape either
// decodes a prefix of the events or fails with errTapeCorrupt — never a
// panic, never an invented event.
func TestDecodeTapeTruncations(t *testing.T) {
	tp := borrowTape()
	defer releaseTape(tp)
	tp.Full(70000, 3)
	tp.Partial(1, 2, 0.25)
	tp.Compl(9, 1<<19)

	full := &eventSink{}
	if err := decodeTape(tp.buf, full); err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(tp.buf); cut++ {
		got := &eventSink{}
		err := decodeTape(tp.buf[:cut], got)
		if err != nil && !errors.Is(err, errTapeCorrupt) {
			t.Fatalf("cut=%d: unexpected error type %v", cut, err)
		}
		if !bytes.HasPrefix(full.buf, got.buf) {
			t.Fatalf("cut=%d: truncated decode emitted events the full decode did not", cut)
		}
	}
}

// TestDecodeTapeUnknownKinds: the grammar is 'F', 'P' and 'C' and nothing
// else. 'D' — the dimension-list event earlier builds wrote — is an unknown
// kind like any other, whatever follows it, and is rejected without
// allocating; out-of-range indices fail too.
func TestDecodeTapeUnknownKinds(t *testing.T) {
	for _, buf := range [][]byte{
		{'D', 1, 2, 2, 0, 1}, // a well-formed dims event of the old grammar
		binary.AppendUvarint([]byte{'D', 1, 2}, 1<<30),
		{'Z', 1, 2},
	} {
		allocs := testing.AllocsPerRun(10, func() {
			if err := decodeTape(buf, &Counter{}); !errors.Is(err, errTapeCorrupt) {
				t.Fatalf("kind %q: want errTapeCorrupt, got %v", buf[0], err)
			}
		})
		if allocs > 1 { // the Counter
			t.Errorf("kind %q: %.0f allocations per rejected decode", buf[0], allocs)
		}
	}
	big := []byte{tapeFull}
	big = binary.AppendUvarint(big, math.MaxUint64)
	big = binary.AppendUvarint(big, 1)
	if err := decodeTape(big, &Counter{}); !errors.Is(err, errTapeCorrupt) {
		t.Fatalf("out-of-range index: want errTapeCorrupt, got %v", err)
	}
}

// FuzzTapeDecode: arbitrary bytes never panic the tape decoder;
// successfully decoded streams canonicalize idempotently (decode →
// re-encode → decode is a fixpoint).
func FuzzTapeDecode(f *testing.F) {
	// Seeds: a well-formed multi-event tape, its truncations, a 'D' event
	// of the old grammar (rejected as an unknown kind), and junk.
	tp := borrowTape()
	tp.Full(1, 2)
	tp.Partial(3, 4, 0.75)
	tp.Compl(5, 6)
	valid := append([]byte(nil), tp.buf...)
	releaseTape(tp)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(valid[:1])
	f.Add([]byte{})
	f.Add([]byte{'D', 3, 4, 2, 0, 2})
	f.Add([]byte{tapePartial, 1, 2, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{0x80}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		canon := borrowTape()
		defer releaseTape(canon)
		if err := decodeTape(data, canon); err != nil {
			if !errors.Is(err, errTapeCorrupt) {
				t.Fatalf("decode error is not errTapeCorrupt: %v", err)
			}
			return
		}
		if len(data) > 0 && data[0] == 'D' {
			t.Fatalf("a tape starting with a 'D' event decoded")
		}
		// The canonical re-encoding must itself decode, and re-encoding IT
		// must be a byte-level fixpoint — non-canonical varints in the
		// input normalize exactly once.
		canon2 := borrowTape()
		defer releaseTape(canon2)
		if err := decodeTape(canon.buf, canon2); err != nil {
			t.Fatalf("canonical re-encoding failed to decode: %v", err)
		}
		if !bytes.Equal(canon.buf, canon2.buf) {
			t.Fatalf("canonicalization is not idempotent (%d vs %d bytes)", len(canon.buf), len(canon2.buf))
		}
	})
}
