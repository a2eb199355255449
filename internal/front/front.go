// Package front is the HTTP layer both daemons, cubed and cubegate, put
// around their routes: request counters and latency histograms under the
// metric names the daemon passes, a trace ID per request (the client's
// X-Request-Id or a generated one) echoed on the response and carried on
// the request context with the request's span tree, panic containment,
// the bounded ring of recent traces behind GET /debug/traces, the
// slow-query log, the request deadline, and the listener that mounts the
// collector's endpoints beside the routes.
package front

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rdfcube/internal/obsv"
)

// TraceIDHeader is the request/response header carrying the trace ID.
const TraceIDHeader = "X-Request-Id"

// MaxTraceIDLen caps an accepted X-Request-Id; a longer one is replaced
// by a generated ID (a trace ID is a correlation token, not a payload
// channel). It leaves a client's ID of up to 128 bytes room for the
// ".<shard>.<attempt>" suffix cubegate adds when it forwards the ID to
// a shard, so the shard still accepts it.
const MaxTraceIDLen = 256

// Config is what a Front is built from. The metric names are the
// daemon's own.
type Config struct {
	// Requests counts requests; each route also counts under
	// Requests+"."+route.
	Requests string
	// Errors counts answers with a 4xx or 5xx status.
	Errors string
	// Panics counts handler panics recovered and answered 500.
	Panics string
	// Latency is the all-routes latency histogram (µs).
	Latency string
	// RouteLatency names one route's latency histogram (µs).
	RouteLatency func(route string) string
	// Recorder receives the counters and histograms.
	Recorder *obsv.Collector
	// Logf receives the panic log lines; nil discards them.
	Logf func(format string, a ...any)
	// Timeout is the request deadline Mux puts on the routes it is given.
	Timeout time.Duration
	// TraceRing bounds the ring of recent traces; zero means 128.
	TraceRing int
	// SlowThreshold and SlowLog gate the slow-query log: a request at
	// least SlowThreshold slow is written to SlowLog as one JSON line.
	// A zero threshold or a nil writer disables the log.
	SlowThreshold time.Duration
	SlowLog       io.Writer
}

// Front wraps one daemon's routes. Build it with New.
type Front struct {
	cfg Config
	// The ring of recent traces: fixed memory, newest overwrites oldest.
	mu       sync.Mutex
	ring     []*Trace
	next     int
	recorded int64
	slowMu   sync.Mutex // one slow-log line at a time: lines must not interleave
}

// New builds a Front.
func New(cfg Config) *Front {
	size := cfg.TraceRing
	if size <= 0 {
		size = 128
	}
	return &Front{cfg: cfg, ring: make([]*Trace, size)}
}

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

// Tracer is an in-flight request's trace, carried on its context: the
// trace ID and the span tree handlers record phases into.
type Tracer struct {
	ID    string
	Spans *obsv.TraceCollector
}

// Span opens a child span on the request's trace; the returned closer is
// a no-op when the request is untraced (nil receiver).
func (t *Tracer) Span(name string) func() {
	if t == nil {
		return func() {}
	}
	return t.Spans.Start(name)
}

type tracerKey struct{}

// FromContext returns the trace of the request carrying ctx, or nil for
// a context no Front built.
func FromContext(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey{}).(*Tracer)
	return t
}

// TraceID returns the trace ID of the request carrying ctx, or "".
func TraceID(ctx context.Context) string {
	if t := FromContext(ctx); t != nil {
		return t.ID
	}
	return ""
}

// traceSeq disambiguates trace IDs generated within one nanosecond tick.
var traceSeq atomic.Uint64

// newTraceID generates a process-unique trace ID: start-time nanos, pid
// and a sequence number, in hex. Not globally unique like a UUID, but
// collision-free within one daemon's trace ring and log stream.
func newTraceID() string {
	b := strconv.AppendUint(make([]byte, 0, 32), uint64(time.Now().UnixNano())&0xffffffffffff, 16)
	b = strconv.AppendUint(append(b, '-'), uint64(os.Getpid()&0xffff), 16)
	b = strconv.AppendUint(append(b, '-'), traceSeq.Add(1)&0xffff, 16)
	return string(b)
}

// Wrap instruments one route's handler. Every request is counted, gets a
// trace ID (the client's X-Request-Id when it has one of at most
// MaxTraceIDLen bytes, else a generated one) echoed on the response and
// carried on the request context, and is timed into the route's and the
// all-routes histogram. A panic is contained: logged with the trace ID
// and its stack, counted, and answered 500 with the trace ID in the body
// when nothing was written yet. The request's span tree lands in the
// trace ring, and in the slow-query log when it was slow enough.
func (f *Front) Wrap(route string, h func(http.ResponseWriter, *http.Request)) http.Handler {
	c, rec := f.cfg, f.cfg.Recorder
	// The hot path's handles, looked up once per route.
	requests, routeRequests := rec.Counter(c.Requests), rec.Counter(c.Requests+"."+route)
	errs := rec.Counter(c.Errors)
	latency, routeLatency := rec.Histogram(c.Latency), rec.Histogram(c.RouteLatency(route))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		routeRequests.Add(1)
		tid := r.Header.Get(TraceIDHeader)
		if tid == "" || len(tid) > MaxTraceIDLen {
			tid = newTraceID()
		}
		w.Header().Set(TraceIDHeader, tid)
		tr := &Tracer{ID: tid, Spans: obsv.NewTraceCollector()}
		r = r.WithContext(context.WithValue(r.Context(), tracerKey{}, tr))

		start := time.Now()
		endSpan := tr.Spans.Start(route)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		f.contain(route, tid, h, sw, r)
		endSpan()
		us := time.Since(start).Microseconds()
		latency.Observe(us)
		routeLatency.Observe(us)
		if sw.status >= 400 {
			errs.Add(1)
		}
		f.record(&Trace{
			ID:         tid,
			Route:      route,
			Method:     r.Method,
			Path:       r.URL.Path,
			Status:     sw.status,
			Start:      start,
			DurationUs: us,
			Spans:      tr.Spans.Spans(),
		})
	})
}

// contain runs h, recovering a panic: one bad request must not take down
// the daemon.
func (f *Front) contain(route, tid string, h func(http.ResponseWriter, *http.Request), sw *statusWriter, r *http.Request) {
	defer func() {
		if p := recover(); p != nil {
			f.cfg.Recorder.Count(f.cfg.Panics, 1)
			if f.cfg.Logf != nil {
				f.cfg.Logf("panic in %s handler (trace %s): %v\n%s", route, tid, p, debug.Stack())
			}
			if !sw.wrote {
				WriteJSON(sw, http.StatusInternalServerError,
					map[string]string{"error": "internal server error", "traceId": tid})
			}
		}
	}()
	h(sw, r)
}

// Mux returns a daemon's root mux: GET /debug/traces, served unwrapped —
// reading traces must not appear in the ring it reads, nor be refused by
// the overload it diagnoses — and every other request handed to routes
// under the request deadline, carried on the context the handlers
// observe. Routes that must outlive the deadline are mounted on the
// returned mux by the caller.
func (f *Front) Mux(routes http.Handler) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /debug/traces", f.handleTraces)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), f.cfg.Timeout)
		defer cancel()
		routes.ServeHTTP(w, r.WithContext(ctx))
	})
	return mux
}

// statusWriter remembers the response status for error accounting and
// whether anything was written (so panic containment knows whether a 500
// can still be sent).
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

// Unwrap lets http.ResponseController reach the connection.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(p)
}

// WriteJSON answers status with v as JSON, HTML characters unescaped.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// record files a completed trace in the ring and, when it was slow
// enough, in the slow-query log.
func (f *Front) record(t *Trace) {
	f.mu.Lock()
	f.ring[f.next] = t
	f.next = (f.next + 1) % len(f.ring)
	f.recorded++
	f.mu.Unlock()
	if f.cfg.SlowThreshold > 0 && f.cfg.SlowLog != nil && time.Duration(t.DurationUs)*time.Microsecond >= f.cfg.SlowThreshold {
		f.logSlow(t)
	}
}

// handleTraces serves GET /debug/traces: the recent-trace ring newest-
// first. Query parameters: ?id= filters to one trace ID, ?route= to one
// route, ?min_us= to traces at least that slow, ?limit= caps the count.
func (f *Front) handleTraces(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	id, route := q.Get("id"), q.Get("route")
	minUs, _ := strconv.ParseInt(q.Get("min_us"), 10, 64)
	n := len(f.ring)
	limit := n
	if l, err := strconv.Atoi(q.Get("limit")); err == nil && l > 0 && l < limit {
		limit = l
	}
	out := make([]*Trace, 0, limit)
	f.mu.Lock()
	for i := 1; i <= n && len(out) < limit; i++ {
		t := f.ring[(f.next-i+n)%n]
		if t == nil {
			break
		}
		if (id == "" || t.ID == id) && (route == "" || t.Route == route) && t.DurationUs >= minUs {
			out = append(out, t)
		}
	}
	recorded := f.recorded
	f.mu.Unlock()
	WriteJSON(w, http.StatusOK, map[string]any{"capacity": n, "recorded": recorded, "traces": out})
}

// slowLogEntry is one JSON line of the slow-query log — the same shape
// as a /debug/traces entry plus a timestamp, so a log line and a ring
// entry correlate on traceId.
type slowLogEntry struct {
	TS string `json:"ts"`
	*Trace
}

// logSlow appends the trace to the slow-query log as one JSON line.
func (f *Front) logSlow(t *Trace) {
	f.slowMu.Lock()
	defer f.slowMu.Unlock()
	enc := json.NewEncoder(f.cfg.SlowLog)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(slowLogEntry{TS: t.Start.UTC().Format(time.RFC3339Nano), Trace: t})
}

// Listen serves h on addr beside the observability endpoints backed by
// col (/metrics, /metrics.json, /debug/vars, /debug/pprof/); h keeps
// /debug/traces, which is mounted in front of the /debug/ catch-all. It
// returns the bound address and a shutdown that drains in-flight
// requests for up to 15s.
func Listen(addr string, h http.Handler, col *obsv.Collector, logf func(string, ...any)) (string, func(), error) {
	mux := http.NewServeMux()
	for _, p := range []string{"/", "/debug/traces"} {
		mux.Handle(p, h)
	}
	obs := obsv.Handler(col)
	for _, p := range []string{"/metrics", "/metrics.json", "/debug/"} {
		mux.Handle(p, obs)
	}
	srv, bound, err := obsv.Serve(addr, mux)
	if err != nil {
		return "", nil, err
	}
	return bound, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logf("shutdown: %v", err)
		}
	}, nil
}
