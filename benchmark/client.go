package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"rdfcube/internal/loadgen"
)

// The closed-loop driver. Each client claims the next op of the plan from a
// shared cursor and waits for its reply before claiming another, so the
// request ORDER is the plan order and a slow system receives less load.
// Latencies are raw durations kept per client and merged at the end.

// target is where requests go: an in-process handler transport or a real
// socket transport, plus the base URL.
type target struct {
	rt   http.RoundTripper
	base string
}

func inProcess(h http.Handler) target {
	return target{rt: loadgen.HandlerTransport{H: h}, base: "http://bench.invalid"}
}

// reply is what the driver keeps of one response when asked to.
type reply struct {
	op     int // index into the plan
	status int
	body   []byte
}

// runStats is the outcome of one driven plan.
type runStats struct {
	elapsed   time.Duration
	attempted int
	good      int // 2xx
	shed      int // 429
	errs      int // transport errors and every other status
	lat       map[string][]time.Duration
	bytes     map[string][]int // response sizes of 2xx answers, per kind
	replies   []reply          // kept for the kinds named in keep
}

func (r *runStats) failed() int { return r.shed + r.errs }

func (r *runStats) goodput() float64 {
	if r.elapsed <= 0 {
		return 0
	}
	return float64(r.good) / r.elapsed.Seconds()
}

// merge folds another run's samples in (elapsed adds: runs are sequential).
func (r *runStats) merge(o *runStats) {
	r.elapsed += o.elapsed
	r.attempted += o.attempted
	r.good += o.good
	r.shed += o.shed
	r.errs += o.errs
	for k, v := range o.lat {
		r.lat[k] = append(r.lat[k], v...)
	}
	for k, v := range o.bytes {
		r.bytes[k] = append(r.bytes[k], v...)
	}
	r.replies = append(r.replies, o.replies...)
}

func newRunStats() *runStats {
	return &runStats{lat: map[string][]time.Duration{}, bytes: map[string][]int{}}
}

// issue sends one op and returns status, body and the measured latency:
// from just before the request is built to just after the body is read.
func issue(tg target, op loadgen.Op) (status int, body []byte, d time.Duration, err error) {
	t0 := time.Now()
	var rd io.Reader
	if op.Body != nil {
		rd = bytes.NewReader(op.Body)
	}
	req, err := http.NewRequest(op.Method, tg.base+op.Path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	if op.Body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := tg.rt.RoundTrip(req)
	if err != nil {
		return 0, nil, time.Since(t0), err
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, time.Since(t0), err
}

// driveOpts are the optional parts of a driven plan: tr records one root
// span per request, keep names the op kinds whose replies are retained for
// correctness checks, and after runs in the client's own goroutine once
// its 2xx answer has been timed — the client sends nothing else until it
// returns, so what after issues is part of the closed loop.
type driveOpts struct {
	tr    *tracer
	keep  map[string]bool
	after func(i int, op loadgen.Op, d time.Duration)
}

// drive runs ops against tg with a fixed number of closed-loop clients.
func drive(tg target, ops []loadgen.Op, clients int, o driveOpts) *runStats {
	tr, keep := o.tr, o.keep
	locals := make([]*runStats, clients)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		locals[c] = newRunStats()
		wg.Add(1)
		go func(st *runStats) {
			defer wg.Done()
			for {
				i := int(cursor.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				op := ops[i]
				st.attempted++
				id := tr.start("client."+op.Kind, 0, tr.request())
				status, body, d, err := issue(tg, op)
				tr.end(id)
				switch {
				case err != nil:
					st.errs++
				case status >= 200 && status < 300:
					st.good++
					st.lat[op.Kind] = append(st.lat[op.Kind], d)
					st.bytes[op.Kind] = append(st.bytes[op.Kind], len(body))
					if o.after != nil {
						o.after(i, op, d)
					}
				case status == http.StatusTooManyRequests:
					st.shed++
				default:
					st.errs++
				}
				if keep[op.Kind] {
					st.replies = append(st.replies, reply{op: i, status: status, body: body})
				}
			}
		}(locals[c])
	}
	wg.Wait()
	total := newRunStats()
	for _, l := range locals {
		total.merge(l)
	}
	total.elapsed = time.Since(start)
	return total
}

// get issues one GET and insists on a 200.
func get(tg target, path string) ([]byte, error) {
	status, body, _, err := issue(tg, loadgen.Op{Method: "GET", Path: path})
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, status, bytes.TrimSpace(body))
	}
	return body, nil
}
