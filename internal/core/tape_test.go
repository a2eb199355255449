package core

import (
	"bytes"
	"encoding/binary"
	"errors"
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
		switch rng.Intn(4) {
		case 0:
			for _, s := range sinks {
				s.Full(a, b)
			}
		case 1:
			for _, s := range sinks {
				s.Compl(a, b)
			}
		case 2:
			deg := rng.Float64()
			for _, s := range sinks {
				s.Partial(a, b, deg)
			}
		default:
			dims := make([]int, rng.Intn(6))
			for i := range dims {
				dims[i] = rng.Intn(200)
			}
			for _, s := range sinks {
				if rec, ok := s.(DimsRecorder); ok {
					rec.RecordPartialDims(a, b, dims)
				}
			}
		}
	}
}

// TestTapeCodecRoundTrip is the property test of the varint tape codec:
// random event streams encode onto a tape and decode back into a stream
// that is BYTE-EXACT against a direct recording of the same calls —
// including degrees (bit-preserved through Float64bits) and dimension
// lists. 200 trials across stream lengths.
func TestTapeCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		tp, local := borrowTape(true)
		want := &eventSink{}
		randTapeStream(rng, rng.Intn(50), local, want)

		got := &eventSink{}
		if err := decodeTape(tp.buf, got, got, &dimArena{}); err != nil {
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
	tp, local := borrowTape(false)
	defer releaseTape(tp)
	for _, d := range degrees {
		local.Partial(1, 2, d)
	}
	i := 0
	err := decodeTape(tp.buf, sinkFuncs{partial: func(a, b int, deg float64) {
		if math.Float64bits(deg) != math.Float64bits(degrees[i]) {
			t.Errorf("degree %d: got bits %x, want %x", i, math.Float64bits(deg), math.Float64bits(degrees[i]))
		}
		i++
	}}, nil, &dimArena{})
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
// sets, degrees and map_P.
func TestTapeCodecDifferentialResult(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 50; trial++ {
		tp, local := borrowTape(true)
		want := NewResult()
		randTapeStream(rng, 40, local, want)

		got := NewResult()
		if err := decodeTape(tp.buf, got, got, &dimArena{}); err != nil {
			t.Fatal(err)
		}
		releaseTape(tp)
		want.Sort()
		got.Sort()
		if !reflect.DeepEqual(got.FullSet, want.FullSet) ||
			!reflect.DeepEqual(got.PartialSet, want.PartialSet) ||
			!reflect.DeepEqual(got.ComplSet, want.ComplSet) ||
			!reflect.DeepEqual(got.PartialDegree, want.PartialDegree) {
			t.Fatalf("trial %d: replayed Result differs from direct Result", trial)
		}
		// map_P: nil vs empty slices may differ in representation; compare
		// per pair.
		if len(got.PartialDims) != len(want.PartialDims) {
			t.Fatalf("trial %d: map_P sizes differ: %d vs %d", trial, len(got.PartialDims), len(want.PartialDims))
		}
		for p, dims := range want.PartialDims {
			gd := got.PartialDims[p]
			if len(gd) != len(dims) {
				t.Fatalf("trial %d: map_P[%v] differs: %v vs %v", trial, p, gd, dims)
			}
			for k := range dims {
				if gd[k] != dims[k] {
					t.Fatalf("trial %d: map_P[%v] differs: %v vs %v", trial, p, gd, dims)
				}
			}
		}
	}
}

// TestDecodeTapeTruncations: every truncation of a valid tape either
// decodes a prefix of the events or fails with errTapeCorrupt — never a
// panic, never an invented event.
func TestDecodeTapeTruncations(t *testing.T) {
	tp, local := borrowTape(true)
	defer releaseTape(tp)
	local.Full(70000, 3)
	local.Partial(1, 2, 0.25)
	local.(DimsRecorder).RecordPartialDims(1, 2, []int{0, 5, 17})
	local.Compl(9, 1<<19)

	full := &eventSink{}
	if err := decodeTape(tp.buf, full, full, &dimArena{}); err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(tp.buf); cut++ {
		got := &eventSink{}
		err := decodeTape(tp.buf[:cut], got, got, &dimArena{})
		if err != nil && !errors.Is(err, errTapeCorrupt) {
			t.Fatalf("cut=%d: unexpected error type %v", cut, err)
		}
		if !bytes.HasPrefix(full.buf, got.buf) {
			t.Fatalf("cut=%d: truncated decode emitted events the full decode did not", cut)
		}
	}
}

// TestDecodeTapeLyingLength: a 'D' event whose count prefix claims more
// dimensions than the buffer could possibly hold is rejected BEFORE any
// allocation sized from the lie — the over-allocation cap the fuzz target
// watches for.
func TestDecodeTapeLyingLength(t *testing.T) {
	buf := []byte{tapeDims, 1, 2}
	buf = binary.AppendUvarint(buf, 1<<30) // claims a gigabyte of dims
	before := testing.AllocsPerRun(10, func() {
		if err := decodeTape(buf, &Counter{}, discardDims{}, &dimArena{}); !errors.Is(err, errTapeCorrupt) {
			t.Fatalf("want errTapeCorrupt, got %v", err)
		}
	})
	// The decode path may allocate small constant state, but nothing on
	// the order of the claimed length.
	if before > 4 {
		t.Errorf("lying length prefix caused %.0f allocations per decode", before)
	}

	// Unknown event kinds and out-of-range indices fail too.
	if err := decodeTape([]byte{'Z', 1, 2}, &Counter{}, nil, &dimArena{}); !errors.Is(err, errTapeCorrupt) {
		t.Fatalf("unknown kind: want errTapeCorrupt, got %v", err)
	}
	big := []byte{tapeFull}
	big = binary.AppendUvarint(big, math.MaxUint64)
	big = binary.AppendUvarint(big, 1)
	if err := decodeTape(big, &Counter{}, nil, &dimArena{}); !errors.Is(err, errTapeCorrupt) {
		t.Fatalf("out-of-range index: want errTapeCorrupt, got %v", err)
	}
}

// discardDims is a DimsRecorder that drops everything.
type discardDims struct{}

func (discardDims) RecordPartialDims(a, b int, dims []int) {}

// FuzzTapeDecode: arbitrary bytes never panic the tape decoder and never
// over-allocate from lying length prefixes; successfully decoded streams
// canonicalize idempotently (decode → re-encode → decode is a fixpoint).
func FuzzTapeDecode(f *testing.F) {
	// Seeds: a well-formed multi-event tape, its truncations, adversarial
	// length prefixes, and junk.
	tp, local := borrowTape(true)
	local.Full(1, 2)
	local.Partial(3, 4, 0.75)
	local.(DimsRecorder).RecordPartialDims(3, 4, []int{0, 2})
	local.Compl(5, 6)
	valid := append([]byte(nil), tp.buf...)
	releaseTape(tp)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(valid[:1])
	f.Add([]byte{})
	f.Add([]byte{tapeDims, 1, 2, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte{tapePartial, 1, 2, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{0x80}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		canon, rec := borrowTape(true)
		defer releaseTape(canon)
		if err := decodeTape(data, rec, rec.(DimsRecorder), &dimArena{}); err != nil {
			if !errors.Is(err, errTapeCorrupt) {
				t.Fatalf("decode error is not errTapeCorrupt: %v", err)
			}
			return
		}
		// The canonical re-encoding must itself decode, and re-encoding IT
		// must be a byte-level fixpoint — non-canonical varints in the
		// input normalize exactly once.
		canon2, rec2 := borrowTape(true)
		defer releaseTape(canon2)
		if err := decodeTape(canon.buf, rec2, rec2.(DimsRecorder), &dimArena{}); err != nil {
			t.Fatalf("canonical re-encoding failed to decode: %v", err)
		}
		if !bytes.Equal(canon.buf, canon2.buf) {
			t.Fatalf("canonicalization is not idempotent (%d vs %d bytes)", len(canon.buf), len(canon2.buf))
		}
	})
}
