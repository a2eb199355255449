package core

import (
	"fmt"
	"sync"
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
//   - Panic isolation: a shard whose scan panics under a worker is
//     retried once, serially, on a fresh tape after the pool drains. A
//     second panic fails the run with a ShardPanicError carrying the
//     shard's deterministic input fingerprint. One crashing shard
//     therefore costs a retry, not the process; two prove a reproducible
//     bug and are reported as one.

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
	// fingerprint identifies a shard's input deterministically for
	// ShardPanicError reports.
	fingerprint func(shard int) string
}

// tapeMerge replays shard tapes straight into the (already instrumented)
// caller sink, serialized by the mutex. Exactly-once holds because a
// shard's scan is deterministic and every event of its tape is replayed at
// most once: chunks as they fill, the remainder only after the scan
// returned cleanly (see flushTail for the retry of a panicked shard).
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

// flushTail replays a completed shard's tape minus its first skip events —
// the retry path's dedup. A re-scanned shard reproduces its deterministic
// emission stream from the start; skip marks how much of it the first
// attempt already chunk-flushed into the sink.
func (m *tapeMerge) flushTail(t *tape, skip int) {
	if skip > len(t.events) {
		skip = len(t.events) // defensive: a non-deterministic scan shrank
	}
	m.emit(t.events[skip:])
}

// flushChunk replays the tape's current events into the shared sink and
// rewinds it, remembering how many events the sink has consumed. The scan
// keeps appending into the rewound buffer.
func (m *tapeMerge) flushChunk(t *tape) {
	m.emit(t.events)
	t.flushed += len(t.events)
	t.events = t.events[:0]
}

// tapeChunkSize bounds a worker's tape, in events, between flushes: once
// it holds that many, the chunk is replayed into the shared sink and the
// tape rewinds. Peak tape memory per worker is therefore one 48 KiB chunk,
// independent of shard size — the property TestKernelAllocations' pooled
// bytes ceiling enforces. A var, not a const, so tests can shrink it to
// force mid-shard flushes.
var tapeChunkSize = 2048

// runShardPool scans nShards shards on workers goroutines, merging their
// emissions into sink. It returns nil for a clean, complete run, the
// guard's *CanceledError when the run was cut short (the sink then holds
// the salvage described above), or a *ShardPanicError.
func runShardPool(s *Space, sp shardPool, nShards, workers int, sink Sink, g *guard, fault func(int)) error {
	s.gauge(GaugeWorkers, float64(workers))
	merge := &tapeMerge{sink: instrumentSink(s, sink)}

	// panicked[si] >= 0 marks a shard whose scan panicked under a worker
	// and holds the events its chunks had flushed by then. Each shard index
	// is claimed by exactly one worker, so the per-index writes are
	// race-free.
	panicked := make([]int, nShards)
	for si := range panicked {
		panicked[si] = -1
	}

	// runOne scans shard si on a fresh private tape, recording a panic
	// instead of letting it unwind the worker.
	runOne := func(si int, ws any) {
		t := borrowTape(merge)
		defer func() {
			if v := recover(); v != nil {
				panicked[si] = t.flushed
			}
			releaseTape(t)
		}()
		if fault != nil {
			fault(si)
		}
		if err := sp.scan(si, t, ws); err != nil {
			// The guard tripped mid-shard: drop the unflushed remainder.
			// Chunks flushed before the trip stay in the sink (whole events
			// of the deterministic stream — a subset of the full run,
			// never a duplicate).
			return
		}
		merge.flushTail(t, 0)
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
				// Always drain the feed: a tripped guard stops the work,
				// never the channel — the no-deadlock invariant (the
				// feeder below must not block forever on an unconsumed
				// send).
				if g.isTripped() {
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

	// Serial retry of panicked shards, in shard order: one panic is
	// isolated (a crashing worker must not take down the run); a second,
	// reproduced panic fails the run with the shard's input fingerprint so
	// the bug report pins the failing work item.
	for si, flushed := range panicked {
		if flushed < 0 {
			continue
		}
		s.count(CtrShardPanics, 1)
		s.count(CtrShardRetries, 1)
		if err := retryShard(sp, si, flushed, merge, fault); err != nil {
			return err
		}
	}
	return g.err()
}

// retryShard re-scans one panicked shard serially. Chunks the panicked
// attempt already flushed are in the sink for good; the retry re-scans the
// whole shard (deterministically) and flushTail skips exactly that many
// events, keeping emission exactly-once. The retry's tape is unchunked, so
// flushTail sees the whole re-scanned stream. A second panic converts into
// a ShardPanicError; a guard trip during the retry drops the shard like
// any aborted scan.
func retryShard(sp shardPool, si, flushed int, merge *tapeMerge, fault func(int)) (err error) {
	var ws any
	if sp.newWorker != nil {
		ws = sp.newWorker()
	}
	t := borrowTape(nil)
	defer func() {
		if v := recover(); v != nil {
			err = &ShardPanicError{Shard: si, Fingerprint: sp.fingerprint(si), Value: v}
		}
		releaseTape(t)
	}()
	if fault != nil {
		fault(si)
	}
	if sp.scan(si, t, ws) == nil {
		merge.flushTail(t, flushed)
	}
	return nil
}
