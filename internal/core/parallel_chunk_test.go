package core

import (
	"fmt"
	"sync"
	"testing"

	"rdfcube/internal/gen"
	"rdfcube/internal/leakcheck"
)

// countSink records every emission with a per-pair count, behind its own
// mutex so the test can peek at it from inside a running scan.
type countSink struct {
	mu sync.Mutex
	m  map[[2]int]int
}

func (s *countSink) add(a, b int) {
	s.mu.Lock()
	s.m[[2]int{a, b}]++
	s.mu.Unlock()
}

func (s *countSink) Full(a, b int)                 { s.add(a, b) }
func (s *countSink) Compl(a, b int)                { s.add(a, b) }
func (s *countSink) Partial(a, b int, deg float64) { s.add(a, b) }
func (s *countSink) shardEvents(shard, total int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for k, c := range s.m {
		if k[0]/1000 == shard {
			n += c
		}
	}
	return n
}

// TestDirectEmitChunkedRetryExactlyOnce pins the hardest shard-pool
// invariant: a shard that panics AFTER some of its chunks were already
// flushed into the shared sink must, once retried, contribute every event
// exactly once — the retry's flushTail skips precisely the bytes the first
// attempt flushed. The chunk size is shrunk so the flushes really happen
// mid-scan, and the test asserts the panicking shard had flushed chunks
// before its panic (otherwise it would not exercise the skip path at all).
func TestDirectEmitChunkedRetryExactlyOnce(t *testing.T) {
	leakcheck.Check(t)
	defer func(old int) { tapeChunkSize = old }(tapeChunkSize)
	tapeChunkSize = 64 // a handful of events per chunk

	s, err := NewSpace(gen.RealWorld(gen.RealWorldConfig{TotalObs: 80, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}

	const nShards, perShard, panicShard, panicAfter = 4, 100, 2, 60
	sink := &countSink{m: map[[2]int]int{}}
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
					flushedAtPanic = sink.shardEvents(panicShard, perShard)
					panic("injected mid-scan panic")
				}
				local.Full(shard*1000+i, shard)
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
	total := 0
	for k, c := range sink.m {
		if c != 1 {
			t.Errorf("event %v emitted %d times, want exactly once", k, c)
		}
		total += c
	}
	if want := nShards * perShard; total != want {
		t.Errorf("sink holds %d events, want %d", total, want)
	}
}
