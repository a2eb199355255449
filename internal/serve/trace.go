// Request tracing: every request gets a trace ID (accepted via
// X-Request-Id or generated), a per-request span tree recorded through an
// obsv.TraceCollector, and a slot in a bounded in-memory ring queryable
// at /debug/traces — so one slow /v1/related call can be explained down
// to the phase that ate the budget, and a 5xx body's traceId can be
// matched to the slow-query log and the panic log line.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rdfcube/internal/obsv"
)

// TraceIDHeader is the request/response header carrying the trace ID.
const TraceIDHeader = "X-Request-Id"

// maxTraceIDLen caps an accepted client-supplied trace ID; longer ones
// are replaced (a trace ID is an opaque correlation token, not a payload
// channel).
const maxTraceIDLen = 128

// Trace is one completed request's record: identity, outcome, and the
// span tree with per-span durations and counter deltas.
type Trace struct {
	ID         string       `json:"traceId"`
	Route      string       `json:"route"`
	Method     string       `json:"method"`
	Path       string       `json:"path"`
	Status     int          `json:"status"`
	Start      time.Time    `json:"start"`
	DurationUs int64        `json:"durationUs"`
	Spans      []*obsv.Span `json:"spans,omitempty"`
}

// reqTrace is the in-flight per-request trace state carried on the
// request context.
type reqTrace struct {
	id string
	tc *obsv.TraceCollector
}

// span opens a child span on the request's trace; the returned closer is
// a no-op when the request is untraced (nil receiver).
func (t *reqTrace) span(name string) func() {
	if t == nil {
		return func() {}
	}
	return t.tc.Start(name)
}

type traceCtxKey struct{}

// TraceID returns the trace ID of the request carrying ctx, or "" when
// the request is untraced (e.g. a context not built by the middleware).
func TraceID(ctx context.Context) string {
	if t, _ := ctx.Value(traceCtxKey{}).(*reqTrace); t != nil {
		return t.id
	}
	return ""
}

// traceFrom extracts the in-flight trace (nil when untraced).
func traceFrom(ctx context.Context) *reqTrace {
	t, _ := ctx.Value(traceCtxKey{}).(*reqTrace)
	return t
}

// traceSeq disambiguates trace IDs generated within one nanosecond tick.
var traceSeq atomic.Uint64

// newTraceID generates a process-unique trace ID: start-time nanos, pid
// and a sequence number. Not globally unique like a UUID, but collision-
// free within one daemon's trace ring and log stream, with zero
// dependencies.
func newTraceID() string {
	return fmt.Sprintf("%012x-%x-%04x", uint64(time.Now().UnixNano())&0xffffffffffff,
		os.Getpid()&0xffff, traceSeq.Add(1)&0xffff)
}

// traceRing is the bounded ring of recent traces. Fixed memory: Size
// slots, newest overwrites oldest.
type traceRing struct {
	mu    sync.Mutex
	buf   []*Trace
	next  int
	total int64
}

func newTraceRing(size int) *traceRing {
	if size <= 0 {
		size = 128
	}
	return &traceRing{buf: make([]*Trace, size)}
}

func (r *traceRing) add(t *Trace) {
	r.mu.Lock()
	r.buf[r.next] = t
	r.next = (r.next + 1) % len(r.buf)
	r.total++
	r.mu.Unlock()
}

// snapshot returns the retained traces newest-first.
func (r *traceRing) snapshot() []*Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Trace, 0, len(r.buf))
	for i := 1; i <= len(r.buf); i++ {
		t := r.buf[(r.next-i+len(r.buf))%len(r.buf)]
		if t == nil {
			break
		}
		out = append(out, t)
	}
	return out
}

// handleTraces serves GET /debug/traces: the recent-trace ring newest-
// first. Query parameters: ?id= filters to one trace ID, ?route= to one
// route, ?min_us= to traces at least that slow, ?limit= caps the count.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	id := q.Get("id")
	route := q.Get("route")
	minUs, _ := strconv.ParseInt(q.Get("min_us"), 10, 64)
	limit := len(s.traces.buf)
	if l, err := strconv.Atoi(q.Get("limit")); err == nil && l > 0 && l < limit {
		limit = l
	}
	all := s.traces.snapshot()
	out := make([]*Trace, 0, len(all))
	for _, t := range all {
		if id != "" && t.ID != id {
			continue
		}
		if route != "" && t.Route != route {
			continue
		}
		if t.DurationUs < minUs {
			continue
		}
		out = append(out, t)
		if len(out) >= limit {
			break
		}
	}
	s.traces.mu.Lock()
	total := s.traces.total
	s.traces.mu.Unlock()
	WriteJSON(w, http.StatusOK, map[string]any{
		"capacity": len(s.traces.buf),
		"recorded": total,
		"traces":   out,
	})
}

// slowLogEntry is one JSON line of the slow-query log — the same shape
// as a /debug/traces entry plus a timestamp, so a log line and a ring
// entry correlate on traceId.
type slowLogEntry struct {
	TS string `json:"ts"`
	*Trace
}

// logSlow appends the trace to the slow-query log as one JSON line.
// Serialized by slowMu: concurrent slow requests must not interleave
// bytes within a line.
func (s *Server) logSlow(t *Trace) {
	s.slowMu.Lock()
	defer s.slowMu.Unlock()
	enc := json.NewEncoder(s.slowLog)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(slowLogEntry{TS: t.Start.UTC().Format(time.RFC3339Nano), Trace: t})
}
