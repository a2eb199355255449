package obsv

import (
	"sync"
	"time"
)

// TraceCollector is the per-request Recorder behind request tracing: it
// records a span tree exactly like Collector, but attributes every Count
// delta to the innermost open span, so one request's trace shows which
// phase did which work (e.g. an insert's trace carries the incremental
// sweep's cubes.pairs.pruned delta on its apply span). One
// TraceCollector serves one request and is then read once; it is still
// safe for concurrent use because parallel kernels flush counters from
// worker goroutines while the compare span is open.
//
// Gauges and histogram observations are deliberately dropped: a trace is
// a tree of durations and work deltas, and point-in-time gauges or
// process-wide distributions belong to the global Collector it usually
// runs next to (via Multi).
type TraceCollector struct {
	mu    sync.Mutex
	roots []*Span
	stack []*Span
}

// NewTraceCollector returns an empty TraceCollector.
func NewTraceCollector() *TraceCollector {
	return &TraceCollector{}
}

// Start implements Recorder: the span nests under the innermost open
// span, like Collector's.
func (t *TraceCollector) Start(name string) func() {
	sp := &Span{Name: name, start: time.Now(), open: true}
	t.mu.Lock()
	if n := len(t.stack); n > 0 {
		parent := t.stack[n-1]
		parent.Children = append(parent.Children, sp)
	} else {
		t.roots = append(t.roots, sp)
	}
	t.stack = append(t.stack, sp)
	t.mu.Unlock()

	var once sync.Once
	return func() {
		once.Do(func() {
			t.mu.Lock()
			defer t.mu.Unlock()
			sp.Seconds = time.Since(sp.start).Seconds()
			sp.open = false
			for i := len(t.stack) - 1; i >= 0; i-- {
				top := t.stack[i]
				t.stack = t.stack[:i]
				if top == sp {
					break
				}
				if top.open {
					top.Seconds = time.Since(top.start).Seconds()
					top.open = false
				}
			}
		})
	}
}

// Count implements Recorder: the delta is charged to the innermost open
// span. Deltas arriving outside any span (possible when a kernel flushes
// its batch just after the request span closed) are charged to the most
// recent root so they are never lost.
func (t *TraceCollector) Count(name string, delta int64) {
	if delta == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var sp *Span
	if n := len(t.stack); n > 0 {
		sp = t.stack[n-1]
	} else if n := len(t.roots); n > 0 {
		sp = t.roots[n-1]
	} else {
		return
	}
	if sp.Counters == nil {
		sp.Counters = map[string]int64{}
	}
	sp.Counters[name] += delta
}

// Gauge implements Recorder (dropped; see the type comment).
func (t *TraceCollector) Gauge(string, float64) {}

// Spans returns a deep copy of the recorded tree; open spans report
// their elapsed time.
func (t *TraceCollector) Spans() []*Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Span, len(t.roots))
	for i, sp := range t.roots {
		out[i] = copySpan(sp)
	}
	return out
}
