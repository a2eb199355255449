package gate

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"rdfcube/internal/front"
	"rdfcube/internal/obsv"
	"rdfcube/internal/wire"
)

// maxUpstreamBody bounds one shard response body read by the gate.
const maxUpstreamBody = 8 << 20

// target is one upstream endpoint (a shard's primary or replica) with
// its own breaker and health flag. Targets start healthy: the prober
// corrects that within one interval, and starting pessimistic would
// blackhole the first seconds after every gate boot.
type target struct {
	shardName string
	role      string // "primary" | "replica"
	url       string
	breaker   *breaker
	healthy   atomic.Bool
	// latency is the target's upstream latency histogram (µs) in the
	// gate's registry: doRead observes it, hedgeDelay and /v1/stats read it.
	latency *obsv.Histogram
}

// shard is one entry of the shard map: a primary, an optional replica,
// and the datasets it owns.
type shard struct {
	name     string
	datasets []string
	primary  *target
	replica  *target // nil when the shard has no read replica
}

// targets fills ts with the shard's endpoints, primary first, and
// returns the filled prefix: a caller's array, so a fetch allocates no
// slice.
func (sh *shard) targets(ts *[2]*target) []*target {
	ts[0], ts[1] = sh.primary, sh.replica
	if sh.replica == nil {
		return ts[:1]
	}
	return ts[:]
}

// available reports whether at least one target's breaker is not open.
// It peeks via Snapshot only — calling Allow here would reserve the
// half-open probe slot without ever reporting on it, wedging the
// breaker. An open-but-expired circuit reads as unavailable until the
// prober (or the next admitted request) closes it.
func (sh *shard) available() bool {
	var ts [2]*target
	for _, t := range sh.targets(&ts) {
		if state, _ := t.breaker.Snapshot(); state != "open" {
			return true
		}
	}
	return false
}

// candidates fills c with the fetch order for a read and returns the
// filled prefix: healthy-and-admitted targets first (primary before
// replica), then admitted-but-unhealthy ones as a last resort. An empty
// prefix means the shard is unreachable this instant (every breaker
// open).
func (sh *shard) candidates(now time.Time, c *[2]*target) []*target {
	var ts, standby [2]*target
	out, ns := c[:0], 0
	for _, t := range sh.targets(&ts) {
		if ok, _ := t.breaker.Allow(now); !ok {
			continue
		}
		if t.healthy.Load() {
			out = append(out, t)
		} else {
			standby[ns] = t
			ns++
		}
	}
	return append(out, standby[:ns]...)
}

// shardAnswer is one shard's contribution to a merged read.
type shardAnswer struct {
	shard *shard
	// ok is true when SOME target answered the question: a 200 whose body
	// scans, or the unknown-observation 400 — normal for every shard but
	// the owner. Anything else (a shed 429, a 499/504, a body cut short)
	// says nothing about the shard's observations, and a merge that went
	// on without it must say "partial".
	ok bool
	// found is the scanned 200 body (nil when the shard does not know the
	// observation). It aliases body; both are pooled, see release.
	found *wire.Answer
	body  *[]byte
	err   error
}

// release returns the answer's buffers to their pools.
func (a *shardAnswer) release() {
	if a.found != nil {
		if a.found.Footprint() <= maxPooledBuf {
			a.found.Reset()
			answerPool.Put(a.found)
		}
		a.found = nil
	}
	putBuf(a.body)
	a.body = nil
}

// fetchResult is one target attempt's outcome.
type fetchResult struct {
	tgt    *target
	status int
	body   *[]byte // from bufPool; nil when err is set
	err    error
}

// fetchShard performs the hedged read of path against one shard: fire
// the best candidate, arm a hedge timer at the primary's latency
// quantile, fire the second candidate when the timer lands (or at once
// when the first attempt fails fast), first usable answer wins and the
// loser's context is canceled.
func (g *Gate) fetchShard(ctx context.Context, sh *shard, path string) shardAnswer {
	now := time.Now()
	var buf [2]*target
	cands := sh.candidates(now, &buf)
	if len(cands) == 0 {
		_, retry := sh.primary.breaker.Allow(now)
		return shardAnswer{shard: sh, err: fmt.Errorf("breaker open (retry in %v)", retry.Round(time.Millisecond))}
	}

	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Buffered for every attempt, so a loser never blocks on its send. A
	// result nobody receives keeps its body buffer out of the pool: only a
	// received result proves that attempt has stopped writing into it.
	results := make(chan fetchResult, len(cands))
	launch := func(attempt int) {
		t := cands[attempt]
		go func() {
			results <- g.doRead(actx, t, path, forwardID(ctx, sh.name, attempt))
		}()
	}

	launch(0)
	outstanding := 1
	next := 1 // index of the next unlaunched candidate

	var hedgeC <-chan time.Time
	if next < len(cands) {
		timer := time.NewTimer(g.hedgeDelay(cands[0]))
		defer timer.Stop()
		hedgeC = timer.C
	}

	var hedged *target // the target launched BY the hedge timer
	var lastErr error
	for {
		select {
		case <-ctx.Done():
			return shardAnswer{shard: sh, err: ctx.Err()}
		case <-hedgeC:
			hedgeC = nil
			if next < len(cands) {
				g.rec.Count(CtrHedgeFired, 1)
				hedged = cands[next]
				launch(next)
				next++
				outstanding++
			}
		case res := <-results:
			outstanding--
			ans := g.classify(sh, res)
			if ans.ok {
				if hedged != nil && res.tgt == hedged {
					g.rec.Count(CtrHedgeWon, 1)
				}
				return ans
			}
			lastErr = fmt.Errorf("%s %s: %w", res.tgt.role, res.tgt.url, ans.err)
			// A fast failure converts the hedge into an immediate
			// failover: don't sit out the timer with zero in flight.
			if outstanding == 0 && next < len(cands) {
				hedgeC = nil
				launch(next)
				next++
				outstanding++
				continue
			}
			if outstanding == 0 {
				return shardAnswer{shard: sh, err: lastErr}
			}
		}
	}
}

// classify turns one finished attempt into the merge's terms. A 200 is
// scanned here, on the shard's own goroutine, because whether it scans
// decides whether the shard has answered. Shards answer 400 with an
// "unknown observation" error body for observations they do not own — for
// the gate that is an empty contribution, not an error. Every other
// outcome leaves ok false and says why in err; the body buffer goes back
// to the pool unless the answer still aliases it.
func (g *Gate) classify(sh *shard, res fetchResult) shardAnswer {
	ans := shardAnswer{shard: sh}
	switch {
	case res.err != nil:
		ans.err = res.err
	case res.status == http.StatusOK:
		found := answerPool.Get().(*wire.Answer)
		if err := found.Scan(*res.body); err != nil {
			answerPool.Put(found)
			ans.err = fmt.Errorf("status 200, body of %d bytes does not scan: %w", len(*res.body), err)
			break
		}
		ans.ok, ans.found, ans.body = true, found, res.body
		return ans
	case res.status == http.StatusBadRequest && isUnknownObservation(*res.body):
		ans.ok = true
	default:
		ans.err = fmt.Errorf("status %d", res.status)
	}
	putBuf(res.body)
	return ans
}

// unknownObservation is how serve's 400 for an observation the shard does
// not hold begins: serve writes its error bodies from a map through
// encoding/json, which sorts the keys, so "error" comes first.
const unknownObservation = `{"error":"unknown observation `

// isUnknownObservation recognises serve's 400 for an observation the
// shard does not hold by its fixed prefix. The body must still be whole
// JSON: a cut one says nothing about the shard.
func isUnknownObservation(body []byte) bool {
	return bytes.HasPrefix(body, []byte(unknownObservation)) && json.Valid(body)
}

// doRead performs one GET against one target, under a deadline carved
// from the inbound budget, recording latency and feeding the breaker. A
// non-empty id is sent as the call's X-Request-Id.
func (g *Gate) doRead(ctx context.Context, t *target, path, id string) fetchResult {
	dctx, cancel := g.shardContext(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(dctx, "GET", t.url+path, nil)
	if err != nil {
		return fetchResult{tgt: t, err: err}
	}
	if id != "" {
		req.Header.Set(front.TraceIDHeader, id)
	}
	start := time.Now()
	resp, err := g.client.Do(req)
	if err != nil {
		// Don't punish a target for OUR hedge losing the race: a cancel
		// from the winning sibling is not the target's failure.
		if ctx.Err() == nil || dctx.Err() == context.DeadlineExceeded {
			t.breaker.Failure(time.Now())
		}
		return fetchResult{tgt: t, err: err}
	}
	bp := getBuf()
	rerr := readBody(bp, resp.Body)
	resp.Body.Close()
	t.latency.Observe(time.Since(start).Microseconds())
	if rerr != nil {
		putBuf(bp)
		t.breaker.Failure(time.Now())
		return fetchResult{tgt: t, err: fmt.Errorf("read body: %w", rerr)}
	}
	if resp.StatusCode >= 500 {
		t.breaker.Failure(time.Now())
	} else {
		t.breaker.Success()
	}
	return fetchResult{tgt: t, status: resp.StatusCode, body: bp}
}

// readBody reads r to its end, or to maxUpstreamBody, into *bp from its
// start, growing it (by doubling) only when its kept capacity is too
// small. A body cut at the cap is no error here: it fails to scan.
func readBody(bp *[]byte, r io.Reader) error {
	b := (*bp)[:0]
	defer func() { *bp = b }()
	for len(b) < maxUpstreamBody {
		if len(b) == cap(b) {
			b = slices.Grow(b, max(len(b), 4<<10))
		}
		n, err := r.Read(b[len(b):min(cap(b), maxUpstreamBody)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// forwardID is the X-Request-Id of one shard call made for the inbound
// request carrying ctx: the inbound trace ID, the shard's name and the
// call's attempt number, "<id>.<shard>.<attempt>", so the shard's trace
// ring files the call under the ID the client holds. It is "" for a call
// no inbound request made (a migration copy), which sends none.
func forwardID(ctx context.Context, shard string, attempt int) string {
	id := front.TraceID(ctx)
	if id == "" {
		return ""
	}
	return id + "." + shard + "." + strconv.Itoa(attempt)
}

// shardContext bounds one upstream call: ShardTimeout, shrunk so that
// MergeReserve of the inbound budget survives the call.
func (g *Gate) shardContext(ctx context.Context) (context.Context, context.CancelFunc) {
	budget := g.cfg.shardTimeout()
	if dl, ok := ctx.Deadline(); ok {
		if remaining := time.Until(dl) - g.cfg.mergeReserve(); remaining < budget {
			budget = remaining
		}
	}
	if budget < time.Millisecond {
		budget = time.Millisecond
	}
	return context.WithTimeout(ctx, budget)
}

// hedgeQuantile is the primary-latency quantile after which the replica
// is fired.
const hedgeQuantile = 0.9

// hedgeDelay derives the replica-fire delay from the primary target's
// own latency histogram: its hedgeQuantile, clamped to [HedgeMin,
// HedgeMax]. Without data it is HedgeMax — hedge conservatively until
// evidence accumulates.
func (g *Gate) hedgeDelay(primary *target) time.Duration {
	d := g.cfg.hedgeMax()
	if q := primary.latency.Quantile(hedgeQuantile); q > 0 {
		d = time.Duration(q) * time.Microsecond
	}
	if min := g.cfg.hedgeMin(); d < min {
		d = min
	}
	if max := g.cfg.hedgeMax(); d > max {
		d = max
	}
	return d
}

// drain discards and closes a response body so the connection is reused.
func drain(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	resp.Body.Close()
}
