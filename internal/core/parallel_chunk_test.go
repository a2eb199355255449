package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
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

// TestDirectEmitChunkedRetryExactlyOnce pins what a shard that panics
// AFTER some of its chunks were already flushed into the shared sink
// leaves behind: the shard runs once, runShardPool panics again with its
// value, and every event reaches the sink at most once — the chunks the
// shard flushed stay, its unflushed remainder is dropped, nothing is
// replayed. The chunk size is shrunk so the flushes really happen
// mid-scan, and the test asserts the panicking shard had flushed chunks
// before its panic. Every shard emits all three kinds, so each (kind,
// pair, degree) must also come through the tape unchanged.
func TestDirectEmitChunkedRetryExactlyOnce(t *testing.T) {
	leakcheck.Check(t)
	defer func(old int) { tapeChunkSize = old }(tapeChunkSize)
	tapeChunkSize = 4 // events per chunk

	s, err := NewSpace(gen.RealWorld(gen.RealWorldConfig{TotalObs: 80, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}

	const nShards, perShard, panicShard, panicAfter = 4, 100, 2, 61
	const fault = "injected mid-scan panic"
	sink := &countSink{m: map[emission]int{}}
	var attempts [nShards]atomic.Int32
	flushedAtPanic := -1

	sp := shardPool{
		kind:     "chunks",
		totalCtr: "test.chunks.total",
		weight:   func(int) int64 { return 1 },
		scan: func(shard int, local Sink, _ any) error {
			attempts[shard].Add(1)
			for i := 0; i < perShard; i++ {
				if shard == panicShard && i == panicAfter {
					flushedAtPanic = sink.shardEvents(panicShard)
					panic(fault)
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
	}

	v := func() (v any) {
		defer func() { v = recover() }()
		if err := runShardPool(s, sp, nShards, 2, sink, nil); err != nil {
			t.Fatalf("runShardPool: %v", err)
		}
		return nil
	}()
	if msg := fmt.Sprint(v); !strings.Contains(msg, fault) || !strings.Contains(msg, fmt.Sprintf("shard %d", panicShard)) {
		t.Fatalf("runShardPool did not panic again with shard %d's value; recovered %q", panicShard, msg)
	}
	if n := attempts[panicShard].Load(); n != 1 {
		t.Fatalf("panicked shard ran %d times, want 1", n)
	}
	if want := panicAfter - panicAfter%tapeChunkSize; flushedAtPanic != want {
		t.Fatalf("the panicking shard had flushed %d events before its panic, want its %d whole chunks", flushedAtPanic, want)
	}
	for e, n := range sink.m {
		if n != 1 {
			t.Errorf("event %+v arrived %d times, want at most once", e, n)
		}
		shard, i := e.a/1000, e.a%1000
		if e != shardEmission(shard, i) || (shard == panicShard && i >= flushedAtPanic) {
			t.Errorf("event %+v was never flushed by its shard", e)
		}
	}
}
