package loadgen

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rdfcube/internal/obsv"
)

// HandlerTransport is an http.RoundTripper that dispatches requests to
// an in-process handler — no sockets, no network stack, so an in-process
// load run measures the serving path itself.
type HandlerTransport struct {
	H http.Handler
}

// RoundTrip implements http.RoundTripper.
func (t HandlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.H.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// Options tunes one load run.
type Options struct {
	// Transport executes the requests: a HandlerTransport for in-process
	// runs, http.DefaultTransport (or similar) for network runs.
	Transport http.RoundTripper
	// BaseURL prefixes every op path, e.g. "http://127.0.0.1:8080". For
	// in-process runs any syntactically valid URL works.
	BaseURL string
	// BaseURLs, when non-empty, overrides BaseURL with a target list for a
	// replicated topology: GET ops round-robin across every target, while
	// writes (and every other method) always go to the FIRST target — by
	// convention the leader, since read replicas refuse writes with 503.
	BaseURLs []string
	// Concurrency is the number of closed-loop workers (or the in-flight
	// cap in open-loop mode). Zero means 8.
	Concurrency int
	// RPS, when positive, switches to open-loop pacing: ops are released
	// on a fixed schedule regardless of completions, and an op whose
	// release finds no free worker slot is dropped (counted, not sent) —
	// the load does NOT slow down to match a struggling server, which is
	// what makes open-loop numbers honest under overload.
	RPS float64
	// Retry switches to polite-client mode: a 429 or 503 is retried (up
	// to RetryMax times) after the response's Retry-After hint, or a
	// doubling backoff when the server gave none. The measured latency
	// then covers the whole polite exchange, waits included — that IS
	// the latency a well-behaved client sees. Off by default: an impolite
	// client measures what the server sheds.
	Retry bool
	// RetryMax bounds the re-sends per op in Retry mode; zero means 3.
	RetryMax int
	// RetryWaitCap caps one honored Retry-After hint (or backoff step);
	// zero means 2s — a load run must not sleep out a long hint.
	RetryWaitCap time.Duration
}

func (o Options) concurrency() int {
	if o.Concurrency <= 0 {
		return 8
	}
	return o.Concurrency
}

func (o Options) retryMax() int {
	if o.RetryMax <= 0 {
		return 3
	}
	return o.RetryMax
}

func (o Options) retryWaitCap() time.Duration {
	if o.RetryWaitCap <= 0 {
		return 2 * time.Second
	}
	return o.RetryWaitCap
}

// RunStats is the raw outcome of one run, before packaging into a
// LoadReport.
type RunStats struct {
	Elapsed time.Duration
	// Sent is the number of requests actually issued; Dropped counts
	// open-loop releases that found no free slot. Sent+Dropped equals the
	// plan length.
	Sent    int64
	Dropped int64
	// Good counts 2xx responses, Shed 429s, Errors every other non-2xx.
	Good   int64
	Shed   int64
	Errors int64
	// Partial counts responses flagged "partial": true — a sharded
	// gate's degraded-but-answering mode. They also count as Good (the
	// request succeeded); this tracks how many answers were incomplete.
	Partial int64
	// Retried counts polite-mode re-sends (attempts beyond each op's
	// first); zero unless Options.Retry is set.
	Retried int64
	// Hist is the overall latency distribution (µs); PerOp splits it by
	// op kind.
	Hist  *obsv.Histogram
	PerOp map[string]*obsv.Histogram
}

// Run executes the plan and collects latency and outcome statistics.
// Request latencies obviously vary run to run; the SEQUENCE of requests
// each worker pool consumes is fixed by the plan.
func Run(ctx context.Context, p *Plan, opts Options) (*RunStats, error) {
	if opts.Transport == nil {
		return nil, fmt.Errorf("loadgen: Options.Transport is required")
	}
	targets := opts.BaseURLs
	if len(targets) == 0 {
		if opts.BaseURL == "" {
			opts.BaseURL = "http://cubeload.invalid"
		}
		targets = []string{opts.BaseURL}
	}
	// Read round-robin cursor; writes pin to targets[0] (the leader).
	var rr atomic.Int64
	baseFor := func(method string) string {
		if len(targets) == 1 || method != http.MethodGet {
			return targets[0]
		}
		return targets[int(rr.Add(1)-1)%len(targets)]
	}
	stats := &RunStats{
		Hist:  &obsv.Histogram{},
		PerOp: map[string]*obsv.Histogram{},
	}
	// Pre-create the per-op histograms so workers never write to the map.
	for _, op := range p.Ops {
		if stats.PerOp[op.Kind] == nil {
			stats.PerOp[op.Kind] = &obsv.Histogram{}
		}
	}

	// attempt issues op once and returns the response status, whether the
	// body was flagged partial, and the Retry-After hint (0 when absent).
	attempt := func(i int, op Op) (status int, partial bool, retryAfter time.Duration, err error) {
		var body io.Reader
		if op.Body != nil {
			body = bytes.NewReader(op.Body)
		}
		req, rerr := http.NewRequestWithContext(ctx, op.Method, baseFor(op.Method)+op.Path, body)
		if rerr != nil {
			return 0, false, 0, rerr
		}
		if op.Body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		req.Header.Set("X-Request-Id", fmt.Sprintf("load-%d", i))
		resp, rerr := opts.Transport.RoundTrip(req)
		if rerr != nil {
			return 0, false, 0, rerr
		}
		respBody, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if secs, aerr := strconv.Atoi(resp.Header.Get("Retry-After")); aerr == nil && secs > 0 {
			retryAfter = time.Duration(secs) * time.Second
		}
		return resp.StatusCode, bytes.Contains(respBody, []byte(`"partial":true`)), retryAfter, nil
	}

	retryable := func(status int) bool {
		return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
	}

	execute := func(i int, op Op) {
		start := time.Now()
		status, partial, retryAfter, err := attempt(i, op)
		if opts.Retry && err == nil && retryable(status) {
			bo := backoff{base: 50 * time.Millisecond}
			for r := 0; r < opts.retryMax() && retryable(status); r++ {
				wait := retryAfter
				if wait <= 0 {
					wait = bo.next()
				}
				if limit := opts.retryWaitCap(); wait > limit {
					wait = limit
				}
				select {
				case <-ctx.Done():
					return
				case <-time.After(wait):
				}
				atomic.AddInt64(&stats.Retried, 1)
				status, partial, retryAfter, err = attempt(i, op)
				if err != nil {
					break
				}
			}
		}
		if err != nil {
			atomic.AddInt64(&stats.Errors, 1)
			return
		}
		us := time.Since(start).Microseconds()
		stats.Hist.Observe(us)
		stats.PerOp[op.Kind].Observe(us)
		if partial {
			atomic.AddInt64(&stats.Partial, 1)
		}
		switch {
		case status >= 200 && status < 300:
			atomic.AddInt64(&stats.Good, 1)
		case status == http.StatusTooManyRequests:
			atomic.AddInt64(&stats.Shed, 1)
		default:
			atomic.AddInt64(&stats.Errors, 1)
		}
	}

	start := time.Now()
	if opts.RPS > 0 {
		runOpen(ctx, p, opts, stats, execute)
	} else {
		runClosed(ctx, p, opts, stats, execute)
	}
	stats.Elapsed = time.Since(start)
	return stats, nil
}

// backoff is the polite client's fallback pacing when the server sent
// no Retry-After hint: doubling from base, no jitter (plan determinism
// beats thundering-herd protection inside a load generator).
type backoff struct{ base, cur time.Duration }

func (b *backoff) next() time.Duration {
	if b.cur == 0 {
		b.cur = b.base
	} else {
		b.cur *= 2
	}
	return b.cur
}

// runClosed drives the plan with a fixed worker pool: each worker claims
// the next op from a shared atomic cursor, so the request ORDER is the
// plan order even though completions interleave.
func runClosed(ctx context.Context, p *Plan, opts Options, stats *RunStats, execute func(int, Op)) {
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < opts.concurrency(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1) - 1)
				if i >= len(p.Ops) || ctx.Err() != nil {
					return
				}
				atomic.AddInt64(&stats.Sent, 1)
				execute(i, p.Ops[i])
			}
		}()
	}
	wg.Wait()
}

// runOpen releases ops on the RPS schedule. A release that finds all
// Concurrency slots busy drops the op: open-loop load measures what the
// server sheds, not what a polite client would retry.
func runOpen(ctx context.Context, p *Plan, opts Options, stats *RunStats, execute func(int, Op)) {
	interval := time.Duration(float64(time.Second) / opts.RPS)
	if interval <= 0 {
		interval = time.Microsecond
	}
	slots := make(chan struct{}, opts.concurrency())
	var wg sync.WaitGroup
	next := time.Now()
	for i, op := range p.Ops {
		if ctx.Err() != nil {
			atomic.AddInt64(&stats.Dropped, int64(len(p.Ops)-i))
			break
		}
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		next = next.Add(interval)
		select {
		case slots <- struct{}{}:
			atomic.AddInt64(&stats.Sent, 1)
			wg.Add(1)
			go func(i int, op Op) {
				defer wg.Done()
				defer func() { <-slots }()
				execute(i, op)
			}(i, op)
		default:
			atomic.AddInt64(&stats.Dropped, 1)
		}
	}
	wg.Wait()
}
