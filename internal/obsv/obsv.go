// Package obsv is the zero-dependency instrumentation layer of the
// relationship algorithms: phase spans, monotonic counters and gauges,
// recorded through a pluggable Recorder and exposed as a phase-tree run
// report, expvar-style text/JSON metrics, and an optional debug HTTP
// server (/metrics + net/http/pprof).
//
// The paper's central claims are about work avoided — cubeMasking wins
// because lattice pruning discards most cube pairs before any bit-vector
// test (§3.3, Fig. 5), and clustering trades recall for fewer comparisons
// (§3.2). The counters recorded here make that visible from the inside:
// cube pairs considered/pruned/compared, observation-pair comparisons,
// bit-AND subset tests, and so on, next to per-phase wall-clock spans.
//
// Recorders must be safe for concurrent use: the parallel cubeMasking
// worker pool calls Count from many goroutines. The hot paths batch
// counter increments locally and flush per outer iteration, so a Recorder
// call is never on a per-bit or per-dimension fast path.
package obsv

import "time"

// Recorder is the instrumentation hook consulted by the algorithms.
//
// Implementations must be safe for concurrent use by multiple goroutines.
// All methods must be cheap: hot loops batch their increments, but Count
// is still called once per outer-loop iteration.
type Recorder interface {
	// Start opens a phase span with the given name; the returned func
	// closes it. Spans may nest (compile → om.build); implementations
	// that track a span tree treat spans opened before the previous one
	// closed as children.
	Start(name string) func()
	// Count adds delta to the named monotonic counter.
	Count(name string, delta int64)
	// Gauge sets the named gauge to a point-in-time value.
	Gauge(name string, value float64)
}

// Nop is the no-op Recorder: every method does nothing. Algorithms treat
// a nil Recorder the same way (they skip the call entirely), so Nop exists
// for call sites that want a non-nil Recorder unconditionally.
type Nop struct{}

// Start implements Recorder.
func (Nop) Start(string) func() { return nopEnd }

// Count implements Recorder.
func (Nop) Count(string, int64) {}

// Gauge implements Recorder.
func (Nop) Gauge(string, float64) {}

var nopEnd = func() {}

// Multi fans recording out to several recorders; nil entries are skipped.
// It returns nil when every argument is nil, so callers can do
// opts.Obs = obsv.Multi(collector, progress) without a nil check.
func Multi(rs ...Recorder) Recorder {
	var live []Recorder
	for _, r := range rs {
		if r != nil {
			live = append(live, r)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return multi(live)
}

type multi []Recorder

// Start implements Recorder.
func (m multi) Start(name string) func() {
	ends := make([]func(), len(m))
	for i, r := range m {
		ends[i] = r.Start(name)
	}
	return func() {
		// Close in reverse of open order, like deferred calls.
		for i := len(ends) - 1; i >= 0; i-- {
			ends[i]()
		}
	}
}

// Count implements Recorder.
func (m multi) Count(name string, delta int64) {
	for _, r := range m {
		r.Count(name, delta)
	}
}

// Gauge implements Recorder.
func (m multi) Gauge(name string, value float64) {
	for _, r := range m {
		r.Gauge(name, value)
	}
}

// Span is one node of the recorded phase tree.
type Span struct {
	// Name is the phase name passed to Start.
	Name string `json:"name"`
	// Seconds is the span's wall-clock duration.
	Seconds float64 `json:"seconds"`
	// Children are spans opened while this one was open.
	Children []*Span `json:"children,omitempty"`
	// Counters are the counter deltas attributed to this span (set by
	// TraceCollector, which charges each Count call to the innermost open
	// span; the global Collector leaves it nil — its counters are
	// process-wide, not per-span).
	Counters map[string]int64 `json:"counters,omitempty"`

	start time.Time
	open  bool
}

// Duration returns the span duration as a time.Duration.
func (s *Span) Duration() time.Duration {
	return time.Duration(s.Seconds * float64(time.Second))
}
