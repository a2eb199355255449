package core

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Shard pool. The pooled runs of baseline, clustering and cubeMasking
// follow one shape: deterministic shards (row blocks, clusters, outer
// cubes) are fed to a worker pool, each worker records its shard's
// emissions onto a pooled private tape, and tapes are replayed into the
// caller's sink under one mutex — in bounded chunks while the shard is
// still being scanned, and the remainder when it completes. The sink
// therefore sees whole events, one caller at a time, in shard COMPLETION
// order: a pooled run delivers the serial run's relationship set, not its
// emission order. runShardPool adds the robustness contract on top:
//
//   - Cooperative cancellation: workers consult the shared guard before
//     claiming a shard and inside the scan (the kernels charge the guard
//     every guardPairStride pairs). Crucially, workers always DRAIN the
//     feed channel even when tripped — they just stop doing work — so the
//     feeder can never block on an unconsumed send and the pool can never
//     deadlock, no matter when cancellation lands.
//   - Salvage: a canceled run leaves in the sink every completed shard
//     plus the chunks in-flight shards had flushed before the trip; an
//     aborted shard's unflushed remainder is dropped. Everything delivered
//     is a whole event of the full run's set, exactly once.
//   - Panics: a panic in a shard's scan — or in the caller's sink, which
//     the scan's chunk flushes call — ends the run the way it ends a
//     serial run, on the caller's goroutine. The worker records the first
//     panic with its stack; workers then skip the remaining shards, drain
//     the feed as they do for a tripped guard, and the pool panics again
//     once they are done. Nothing is retried: a shard's scan is
//     deterministic, and a sink that already accepted part of a chunk
//     cannot take it again.

// shardPool describes one pooled run for runShardPool.
type shardPool struct {
	// kind is the per-worker counter suffix ("rows", "clusters", "cubes").
	kind string
	// totalCtr is the pool-wide claimed-work counter.
	totalCtr string
	// weight is the work units charged to totalCtr per claimed shard.
	weight func(shard int) int64
	// newWorker builds optional per-worker scratch state (may be nil).
	newWorker func() any
	// scan runs one shard onto its private sink; a non-nil error means
	// the guard tripped mid-shard.
	scan func(shard int, local Sink, ws any) error
}

// tapeMerge replays shard tapes straight into the (already instrumented)
// caller sink, serialized by the mutex. Every event of a tape is replayed
// at most once: chunks as they fill, the remainder only after the scan
// returned cleanly.
type tapeMerge struct {
	mu   sync.Mutex
	sink Sink
}

// emit replays events into the shared sink.
func (m *tapeMerge) emit(events []event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range events {
		a, b := int(e.a), int(e.b)
		switch e.kind {
		case tapeFull:
			m.sink.Full(a, b)
		case tapePartial:
			m.sink.Partial(a, b, e.degree)
		default:
			m.sink.Compl(a, b)
		}
	}
}

// tapeChunkSize bounds a worker's tape, in events, between flushes: once
// it holds that many, the chunk is replayed into the shared sink and the
// tape rewinds. Peak tape memory per worker is therefore one 48 KiB chunk,
// independent of shard size — the property TestKernelAllocations' pooled
// bytes ceiling enforces. A var, not a const, so tests can shrink it to
// force mid-shard flushes.
var tapeChunkSize = 2048

// shardPanic is the first panic recovered under a pool worker.
type shardPanic struct {
	shard int
	value any
	stack []byte
}

// runShardPool scans nShards shards on workers goroutines, merging their
// emissions into sink. It returns nil for a clean, complete run, or the
// guard's *CanceledError when the run was cut short (the sink then holds
// the salvage described above). A panic under a worker panics again here,
// after the pool drained, with the shard index, the original value and
// the worker's stack; an error value stays reachable through errors.As.
func runShardPool(s *Space, sp shardPool, nShards, workers int, sink Sink, g *guard) error {
	s.gauge(GaugeWorkers, float64(workers))
	merge := &tapeMerge{sink: instrumentSink(s, sink)}

	// failed is set, and first written, by the worker that recovers the
	// run's first panic.
	var (
		failed atomic.Bool
		first  shardPanic
	)
	// runOne scans shard si on a pooled private tape, recording a panic
	// instead of letting it unwind the worker.
	runOne := func(si int, ws any) {
		t := borrowTape(merge)
		defer func() {
			if v := recover(); v != nil && failed.CompareAndSwap(false, true) {
				first = shardPanic{shard: si, value: v, stack: debug.Stack()}
			}
			releaseTape(t)
		}()
		if err := sp.scan(si, t, ws); err != nil {
			// The guard tripped mid-shard: drop the unflushed remainder.
			// Chunks flushed before the trip stay in the sink (whole events
			// of the deterministic stream — a subset of the full run,
			// never a duplicate).
			return
		}
		t.flush()
	}

	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			var ws any
			if sp.newWorker != nil {
				ws = sp.newWorker()
			}
			var claimed int64
			for si := range next {
				// Always drain the feed: a tripped guard or a recorded
				// panic stops the work, never the channel — the
				// no-deadlock invariant (the feeder below must not block
				// forever on an unconsumed send).
				if g.isTripped() || failed.Load() {
					continue
				}
				claimed += sp.weight(si)
				runOne(si, ws)
			}
			s.count(sp.totalCtr, claimed)
			s.count(fmt.Sprintf("parallel.worker.%02d.%s", id, sp.kind), claimed)
		}(w)
	}
	for si := 0; si < nShards; si++ {
		next <- si
	}
	close(next)
	wg.Wait()

	if failed.Load() {
		if err, ok := first.value.(error); ok {
			panic(fmt.Errorf("core: pooled shard %d panicked: %w\n\nworker stack:\n%s", first.shard, err, first.stack))
		}
		panic(fmt.Sprintf("core: pooled shard %d panicked: %v\n\nworker stack:\n%s", first.shard, first.value, first.stack))
	}
	return g.err()
}
