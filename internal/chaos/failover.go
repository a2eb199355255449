package chaos

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"rdfcube/internal/core"
	"rdfcube/internal/faultfs"
	"rdfcube/internal/obsv"
	"rdfcube/internal/replica"
	"rdfcube/internal/serve"
)

// failoverStaleness is the followers' readiness bound: long enough that
// the immediately-after-kill readiness probe lands inside it, short
// enough that the trip assertion stays fast.
const failoverStaleness = 700 * time.Millisecond

// follower is one read replica of a node: a replica.Follower with a
// persistent local chain on its own disk, and its HTTP face.
type follower struct {
	name string
	fol  *replica.Follower
	ts   *httptest.Server
}

// follow starts a follower of n, dialing n's front.
func (w *World) follow(n *node, name string) *follower {
	w.t.Helper()
	fol, err := replica.New(replica.Config{
		Primary:       n.url(),
		Client:        &http.Client{Transport: w.tr},
		FS:            faultfs.NewMemFS(),
		SnapshotPath:  "replica.bin",
		Tasks:         core.TaskAll,
		Recorder:      obsv.NewCollector(),
		MaxStaleness:  failoverStaleness,
		PollWait:      200 * time.Millisecond,
		ReconnectBase: 20 * time.Millisecond,
		ReconnectMax:  200 * time.Millisecond,
		Logf:          func(format string, a ...any) { w.logf("["+name+"] "+format, a...) },
	})
	w.must(err, name)
	fw := &follower{name: name, fol: fol, ts: httptest.NewServer(fol.Handler())}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = fol.Run(ctx) // returns ctx's error: the only way it ends
	}()
	w.onClose(func() {
		cancel()
		<-done
		fw.ts.Close()
	})
	return fw
}

// ready fetches the follower's /readyz: the HTTP status and the reported
// state string.
func (w *World) ready(fw *follower) (int, string) {
	w.t.Helper()
	code, body, err := w.fetchBody(fw.ts.URL, "/readyz")
	w.must(err, fw.name+" readyz")
	var st struct {
		Status string `json:"status"`
	}
	w.must(json.Unmarshal(body, &st), fw.name+" readyz body")
	return code, st.Status
}

// awaitFollowers polls every follower until ok(readyz status, state).
func (w *World) awaitFollowers(fws []*follower, within time.Duration, what string, ok func(int, string) bool) {
	w.t.Helper()
	deadline := time.Now().Add(within)
	for _, fw := range fws {
		for {
			code, state := w.ready(fw)
			if ok(code, state) {
				break
			}
			if time.Now().After(deadline) {
				w.fatalf("%s never %s: still status %d state %s", fw.name, what, code, state)
			}
			time.Sleep(poll)
		}
	}
}

// awaitApplied blocks until every follower's applied offset reaches the
// primary's current durable end.
func (w *World) awaitApplied(primary *node, fws []*follower, within time.Duration) {
	w.t.Helper()
	var stats struct {
		WALEnd int64 `json:"walEnd"`
	}
	w.must(w.getJSON(primary.url(), "/v1/stats", &stats), "reading the primary's durable end")
	deadline := time.Now().Add(within)
	for _, fw := range fws {
		for fw.fol.State().Offset() < stats.WALEnd {
			if time.Now().After(deadline) {
				w.fatalf("%s stuck at offset %d, primary end %d", fw.name, fw.fol.State().Offset(), stats.WALEnd)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// parity asserts byte-identical /v1/related answers between the primary
// and every follower for a sample of observations — replication must not
// just converge approximately, it must serve the same bytes. No waiting:
// the followers have applied the primary's whole log.
func (w *World) parity(primary *node, fws []*follower) {
	w.t.Helper()
	acked := w.ackedCopy()
	sample := append([]string(nil), w.sampled...)
	for i := 0; i < len(acked); i += 1 + len(acked)/16 {
		sample = append(sample, acked[i])
	}
	if len(acked) > 0 {
		sample = append(sample, acked[len(acked)-1])
	}
	for _, uri := range sample {
		for _, fw := range fws {
			w.converge(primary.url(), fw.ts.URL, uri, 0)
		}
	}
}

// Failover is the replication soak: a primary and two followers behind a
// stable front URL. Follower A bootstraps against the seed state, an
// insert wave lands, follower B bootstraps MID-STREAM (its image must
// cover records it never saw on the wire), both converge to byte-identical
// answers and refuse writes with a Leader hint; then, round after round,
// the primary is killed mid-insert — alternating power cuts and graceful
// stops — and the followers must keep serving reads, stay READY until the
// staleness bound passes, flip to 503/stale after it, and re-bootstrap +
// reconverge when the primary returns on the same URL (a new incarnation
// mints a new stream, so their cursor is gone). At the end every insert
// the primary ever acked must be queryable on every follower.
func Failover(t testing.TB, opt Options) {
	t.Helper()
	w := New(t, opt)
	defer w.Close()
	primary := w.paperNode("primary")

	fws := []*follower{w.follow(primary, "follower-a")}
	for i := 0; i < opt.inserts(); i++ {
		w.must(w.insertOnce(w.rng), "first insert wave")
	}
	fws = append(fws, w.follow(primary, "follower-b"))
	w.awaitApplied(primary, fws, 15*time.Second)
	w.parity(primary, fws)
	for _, fw := range fws {
		code, _, hdr, err := w.post(fw.ts.URL, "/v1/observations", []byte(`{"dataset":"d","uri":"u","dimensions":{}}`))
		w.must(err, fw.name+" write")
		if code != http.StatusServiceUnavailable || hdr.Get(serve.LeaderHeader) != primary.url() {
			w.fatalf("%s answered a write with status %d and Leader %q, want 503 and %q", fw.name, code, hdr.Get(serve.LeaderHeader), primary.url())
		}
	}

	for round := 0; round < opt.rounds(); round++ {
		when := fmt.Sprintf("round %d", round)
		// Traffic runs concurrently with the kill so the WAL stream is cut
		// mid-flight, not at a tidy boundary.
		w.traffic(round, op{100, w.insertOnce})
		time.Sleep(time.Duration(1+w.rng.IntN(20)) * time.Millisecond)
		graceful := round%2 == 1
		primary.stop(graceful)
		killedAt := time.Now()
		w.stopTraffic(when + " inserts")

		// Immediately after the kill the followers must still be READY:
		// their answers are stale by at most the replication lag, and the
		// bound has not passed. Probe only while provably inside the bound —
		// scheduler stalls must not turn a correct 503 into a test failure.
		for _, fw := range fws {
			if time.Since(killedAt) > failoverStaleness/2 {
				break
			}
			if code, state := w.ready(fw); code != http.StatusOK {
				w.fatalf("%s: %s lost readiness %s after the kill (status %d, state %s) — staleness bound is %s",
					when, fw.name, time.Since(killedAt), code, state, failoverStaleness)
			}
		}
		// ... and reads must still work against a dead primary.
		for _, fw := range fws {
			if code, _, err := w.fetchBody(fw.ts.URL, "/v1/related?obs=0"); err != nil || code != http.StatusOK {
				w.fatalf("%s: %s read during outage: status %d err %v", when, fw.name, code, err)
			}
		}
		// Once the bound passes, readiness MUST flip to 503/stale.
		w.awaitFollowers(fws, failoverStaleness+5*time.Second, when+": tripped its staleness bound", func(code int, state string) bool {
			return code == http.StatusServiceUnavailable && state == "stale"
		})

		// Resurrect the primary on the same front URL. Reconverged
		// followers must become ready again once their next successful
		// poll (or the re-bootstrap) resets the caught-up clock.
		w.must(primary.start(), when+" restart")
		w.awaitApplied(primary, fws, 15*time.Second)
		w.awaitFollowers(fws, 15*time.Second, when+": regained readiness after reconvergence", func(code int, _ string) bool {
			return code == http.StatusOK
		})
		w.logf("failover: %s done (graceful=%v): %d acked total, followers reconverged", when, graceful, len(w.ackedCopy()))
		w.parity(primary, fws)
	}

	// Every insert the primary ever acked must be queryable on every
	// follower — replication lost nothing across the primary's deaths.
	acked := w.ackedCopy()
	if len(acked) == 0 {
		w.fatalf("failover soak acked no inserts; the harness exercised nothing")
	}
	for _, fw := range fws {
		for _, uri := range acked {
			if code, _, err := w.fetchBody(fw.ts.URL, "/v1/contains?obs="+url.QueryEscape(uri)); err != nil || code != http.StatusOK {
				w.fatalf("acked observation %s missing on %s: status %d err %v", uri, fw.name, code, err)
			}
		}
		if n := fw.fol.State().Bootstraps(); n < 2 {
			w.fatalf("%s bootstrapped %d times; expected at least 2 (initial + post-failover)", fw.name, n)
		}
	}
	w.logf("failover: soak complete: %d inserts acked, %d followers, %d rounds", len(acked), len(fws), opt.rounds())
}
