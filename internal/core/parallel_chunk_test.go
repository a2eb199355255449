package core

import (
	"fmt"
	"sync"
	"testing"

	"rdfcube/internal/gen"
	"rdfcube/internal/leakcheck"
)

// countSink counts every emission by kind, pair and degree, behind its own
// mutex so the test can peek at it from inside a running scan.
type countSink struct {
	mu sync.Mutex
	m  map[emission]int
}

type emission struct {
	kind   byte
	a, b   int
	degree float64
}

func (s *countSink) add(e emission) {
	s.mu.Lock()
	s.m[e]++
	s.mu.Unlock()
}

func (s *countSink) Full(a, b int)                 { s.add(emission{'F', a, b, 0}) }
func (s *countSink) Compl(a, b int)                { s.add(emission{'C', a, b, 0}) }
func (s *countSink) Partial(a, b int, deg float64) { s.add(emission{'P', a, b, deg}) }
func (s *countSink) shardEvents(shard int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for e, c := range s.m {
		if e.a/1000 == shard {
			n += c
		}
	}
	return n
}

// shardEmission is event i of a test shard's deterministic stream: the
// three kinds in turn, each Partial with a degree of its own.
func shardEmission(shard, i int) emission {
	a := shard*1000 + i
	switch i % 3 {
	case 0:
		return emission{'F', a, shard, 0}
	case 1:
		return emission{'P', a, shard, 1 / float64(a+2)}
	default:
		return emission{'C', a, shard, 0}
	}
}

// TestDirectEmitChunkedRetryExactlyOnce pins the hardest shard-pool
// invariant: a shard that panics AFTER some of its chunks were already
// flushed into the shared sink must, once retried, contribute every event
// exactly once — the retry's flushTail skips precisely the events the
// first attempt flushed. The chunk size is shrunk so the flushes really
// happen mid-scan, and the test asserts the panicking shard had flushed
// chunks before its panic (otherwise it would not exercise the skip path
// at all). Every shard emits all three kinds, so each (kind, pair, degree)
// must also come through the tape unchanged.
func TestDirectEmitChunkedRetryExactlyOnce(t *testing.T) {
	leakcheck.Check(t)
	defer func(old int) { tapeChunkSize = old }(tapeChunkSize)
	tapeChunkSize = 4 // events per chunk

	s, err := NewSpace(gen.RealWorld(gen.RealWorldConfig{TotalObs: 80, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}

	const nShards, perShard, panicShard, panicAfter = 4, 100, 2, 61
	sink := &countSink{m: map[emission]int{}}
	var attempts [nShards]int
	var attemptsMu sync.Mutex
	flushedAtPanic := -1

	sp := shardPool{
		kind:     "chunks",
		totalCtr: "test.chunks.total",
		weight:   func(int) int64 { return 1 },
		scan: func(shard int, local Sink, _ any) error {
			attemptsMu.Lock()
			attempts[shard]++
			first := attempts[shard] == 1
			attemptsMu.Unlock()
			for i := 0; i < perShard; i++ {
				if shard == panicShard && first && i == panicAfter {
					flushedAtPanic = sink.shardEvents(panicShard)
					panic("injected mid-scan panic")
				}
				switch e := shardEmission(shard, i); e.kind {
				case 'F':
					local.Full(e.a, e.b)
				case 'P':
					local.Partial(e.a, e.b, e.degree)
				default:
					local.Compl(e.a, e.b)
				}
			}
			return nil
		},
		fingerprint: func(shard int) string { return fmt.Sprintf("chunk-test-%d", shard) },
	}

	if err := runShardPool(s, sp, nShards, 2, sink, nil, nil); err != nil {
		t.Fatalf("runShardPool: %v", err)
	}
	if attempts[panicShard] != 2 {
		t.Fatalf("panicked shard ran %d times, want 2 (scan + retry)", attempts[panicShard])
	}
	if flushedAtPanic <= 0 {
		t.Fatalf("panic landed before any chunk flush (%d events in sink): the test did not exercise the skip path", flushedAtPanic)
	}
	for shard := 0; shard < nShards; shard++ {
		for i := 0; i < perShard; i++ {
			if e := shardEmission(shard, i); sink.m[e] != 1 {
				t.Errorf("event %+v arrived %d times, want exactly once", e, sink.m[e])
			}
		}
	}
	if want := nShards * perShard; len(sink.m) != want {
		t.Errorf("sink holds %d distinct events, want %d", len(sink.m), want)
	}
}
