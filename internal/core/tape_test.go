package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// randTapeStream drives a random event sequence into every sink, so a
// tape's replay can be compared differentially against a direct
// recording.
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

// recordOnTape hands stream a worker tape whose chunks of chunk events
// replay into sink through a tapeMerge, then replays the remainder the way
// a shard whose scan returned cleanly does.
func recordOnTape(sink Sink, chunk int, stream func(Sink)) {
	defer func(old int) { tapeChunkSize = old }(tapeChunkSize)
	tapeChunkSize = chunk
	tp := borrowTape(&tapeMerge{sink: sink})
	defer releaseTape(tp)
	stream(tp)
	tp.flush()
}

// TestTapeCodecRoundTrip is the property test of a worker's event tape:
// random event streams recorded on a tape chunked at 1 to 8 events, so
// chunk flushes land anywhere in the stream, replay into a stream that is
// BYTE-EXACT against a direct recording of the same calls — degrees
// included. 200 trials across stream lengths.
func TestTapeCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		chunk, n := 1+rng.Intn(8), rng.Intn(50)
		want, got := &eventSink{}, &eventSink{}
		recordOnTape(got, chunk, func(tp Sink) { randTapeStream(rng, n, tp, want) })
		if !bytes.Equal(got.buf, want.buf) {
			t.Fatalf("trial %d (chunk %d): replayed stream differs from direct recording (%d vs %d bytes)",
				trial, chunk, len(got.buf), len(want.buf))
		}
	}
}

// TestTapeCodecSpecialDegrees pins bit-exact degree transport through a
// chunked tape for values a lossy event layout would mangle: denormals,
// negative zero, infinities, NaN.
func TestTapeCodecSpecialDegrees(t *testing.T) {
	degrees := []float64{0, math.Copysign(0, -1), 0.5, 1.0 / 3.0,
		math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	i := 0
	sink := sinkFuncs{partial: func(a, b int, deg float64) {
		if math.Float64bits(deg) != math.Float64bits(degrees[i]) {
			t.Errorf("degree %d: got bits %x, want %x", i, math.Float64bits(deg), math.Float64bits(degrees[i]))
		}
		i++
	}}
	recordOnTape(sink, 3, func(tp Sink) {
		for _, d := range degrees {
			tp.Partial(1, 2, d)
		}
	})
	if i != len(degrees) {
		t.Fatalf("replayed %d events, want %d", i, len(degrees))
	}
}

// sinkFuncs adapts closures to the Sink interface for focused replay
// tests.
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

// TestTapeCodecDifferentialResult: replaying a chunked tape into a Result
// produces exactly the Result a direct serial run of the same calls would
// build — sets and degrees.
func TestTapeCodecDifferentialResult(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 50; trial++ {
		want, got := newNaiveResult(), newNaiveResult()
		recordOnTape(got, 1+rng.Intn(8), func(tp Sink) { randTapeStream(rng, 40, tp, want) })
		want.Sort()
		got.Sort()
		sameResult(t, fmt.Sprintf("trial %d", trial), got.Result, want.Result)
		if !reflect.DeepEqual(got.degree, want.degree) {
			t.Fatalf("trial %d: replayed degrees differ from the direct recording", trial)
		}
	}
}

// FuzzTapeDecode: any event stream, decoded from the fuzz input, reaches
// the sink exactly once and in order through a worker's chunked tape. A
// tape whose scan stops partway — a panicked or canceled shard, released
// unflushed — has delivered exactly its whole chunks, in order, and
// dropped the rest. Input: the chunk size, the event at which the stopped
// tape stops, then 4-byte events (kind, a, b, and a degree byte whose bit
// pattern is repeated eight times, so degrees span zero, both signs, huge
// values and NaN).
func FuzzTapeDecode(f *testing.F) {
	// Seeds: no input, no events, all three kinds with a stop mid-stream
	// on one-event chunks, a stream that stops after a mid-shard flush, a
	// NaN degree, a stop before the first event, and junk.
	f.Add([]byte{})
	f.Add([]byte{3, 0})
	f.Add([]byte{0, 2, 0, 1, 2, 0, 1, 3, 4, 0x3f, 2, 5, 6, 0})
	f.Add([]byte{3, 7,
		0, 1, 2, 0, 1, 2, 3, 0x3f, 2, 3, 4, 0, 0, 4, 5, 0, 1, 5, 6, 0x3e,
		2, 6, 7, 0, 0, 7, 8, 0, 1, 8, 9, 0x3d, 2, 9, 10, 0, 0, 10, 11, 0})
	f.Add([]byte{1, 1, 1, 3, 4, 0xff})
	f.Add([]byte{2, 0, 1, 1, 2, 0x80, 0, 3, 4, 0})
	f.Add(bytes.Repeat([]byte{0x80}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		chunk := 1 + int(data[0]%8)
		events := data[2:]
		n := len(events) / 4
		stop := int(data[1]) % (n + 1)
		stream := func(s Sink, upto int) {
			for i := 0; i < upto; i++ {
				e := events[4*i : 4*i+4]
				a, b := int(e[1]), int(e[2])
				switch e[0] % 3 {
				case 0:
					s.Full(a, b)
				case 1:
					s.Partial(a, b, math.Float64frombits(uint64(e[3])*0x0101010101010101))
				default:
					s.Compl(a, b)
				}
			}
		}
		want := &eventSink{}
		stream(want, n)
		whole := &eventSink{}
		stream(whole, stop-stop%chunk)

		// A tape stopped partway and released unflushed.
		defer func(old int) { tapeChunkSize = old }(tapeChunkSize)
		tapeChunkSize = chunk
		got := &eventSink{}
		stopped := borrowTape(&tapeMerge{sink: got})
		stream(stopped, stop)
		releaseTape(stopped)
		if !bytes.Equal(got.buf, whole.buf) {
			t.Fatalf("chunk %d, stop %d: stopped tape delivered %d bytes of records, want its whole chunks' %d",
				chunk, stop, len(got.buf), len(whole.buf))
		}

		// The full stream, flushed at the end like a clean scan.
		got = &eventSink{}
		recordOnTape(got, chunk, func(tp Sink) { stream(tp, n) })
		if !bytes.Equal(got.buf, want.buf) {
			t.Fatalf("chunk %d: sink received %d bytes of records, want %d", chunk, len(got.buf), len(want.buf))
		}
	})
}
