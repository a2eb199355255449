package chaos

import (
	"bytes"
	"fmt"
	"net/http"
	"time"
)

// poll is the pace of every settle loop.
const poll = 20 * time.Millisecond

// awaitReady polls the gate's /readyz until it reports status.
func (w *World) awaitReady(status string, within time.Duration) {
	w.t.Helper()
	deadline := time.Now().Add(within)
	for {
		_, body, err := w.fetchBody(w.baseURL(), "/readyz")
		if err == nil && bytes.Contains(body, []byte(`"`+status+`"`)) {
			return
		}
		if time.Now().After(deadline) {
			w.fatalf("gate never reported %q within %s: %s (err %v)", status, within, body, err)
		}
		time.Sleep(poll)
	}
}

// mirror replays one landed insert into the oracle (409: already there).
func (w *World) mirror(ins insert) {
	w.t.Helper()
	code, rb, _, err := w.post(w.fleet.oracleTS.URL, "/v1/observations", ins.body)
	if err != nil || (code != http.StatusCreated && code != http.StatusConflict) {
		w.fatalf("mirroring %s into the oracle: status %d err %v: %s", ins.uri, code, err, rb)
	}
}

// reconcile settles every insert of the ledger: a read through the gate
// is retried until it answers definitively (a non-partial 200 or 404);
// landed inserts are replayed into the oracle so the two worlds agree
// again. An insert the client saw acknowledged must have landed. Returns
// the number that did.
func (w *World) reconcile(within time.Duration) (landed int) {
	w.t.Helper()
	deadline := time.Now().Add(within)
	acked := map[string]bool{}
	for _, uri := range w.ackedCopy() {
		acked[uri] = true
	}
	for _, ins := range w.ledgerCopy() {
		for {
			code, body, err := w.fetchBody(w.baseURL(), relatedPath(ins.uri))
			definitive := err == nil && !isPartial(body)
			if definitive && code == http.StatusOK {
				w.mirror(ins)
				landed++
				break
			}
			if definitive && code == http.StatusNotFound {
				if acked[ins.uri] {
					w.fatalf("reconcile %s: the gate acknowledged this insert (201) and now answers a complete 404: %s", ins.uri, body)
				}
				break // definitively never landed
			}
			if time.Now().After(deadline) {
				w.fatalf("reconcile %s: no definitive answer within %s (last status %d, err %v)", ins.uri, within, code, err)
			}
			time.Sleep(poll)
		}
	}
	return landed
}

// converge polls until a and b answer uri's relationships with the same
// bytes. Background faults make individual attempts flaky; equality of
// complete (200) answers is what must eventually hold.
func (w *World) converge(a, b, uri string, within time.Duration) {
	w.t.Helper()
	deadline := time.Now().Add(within)
	for {
		ac, ab, aerr := w.fetchBody(a, relatedPath(uri))
		bc, bb, berr := w.fetchBody(b, relatedPath(uri))
		if aerr == nil && berr == nil && ac == http.StatusOK && bc == http.StatusOK && bytes.Equal(ab, bb) {
			return
		}
		if time.Now().After(deadline) {
			w.fatalf("converge %s: never agreed within %s:\n %s (%d, err %v): %s\n %s (%d, err %v): %s",
				uri, within, a, ac, aerr, ab, b, bc, berr, bb)
		}
		time.Sleep(poll)
	}
}

// convergeAll converges the gate with the oracle over the sampled URIs
// plus every ledger insert that landed (never-landed ones 404 on both
// sides and are skipped). Returns how many URIs it compared.
func (w *World) convergeAll(within time.Duration) (converged int) {
	w.t.Helper()
	deadline := time.Now().Add(within)
	uris := append([]string(nil), w.sampled...)
	for _, ins := range w.ledgerCopy() {
		uris = append(uris, ins.uri)
	}
	for _, uri := range uris {
		if code, _, err := w.fetchBody(w.fleet.oracleTS.URL, relatedPath(uri)); err == nil && code == http.StatusNotFound {
			continue
		}
		w.converge(w.baseURL(), w.fleet.oracleTS.URL, uri, time.Until(deadline))
		converged++
	}
	return converged
}

// land pushes one insert through the gate, retrying through background
// faults until it definitively lands (201, or 409 from a retried
// duplicate), and mirrors it into the oracle.
func (w *World) land(tpl insertTemplate, uri string, within time.Duration) {
	w.t.Helper()
	ins := insert{uri: uri, body: tpl.body(uri, func() string { return "777" })}
	deadline := time.Now().Add(within)
	for {
		code, rb, _, err := w.post(w.baseURL(), "/v1/observations", ins.body)
		if err == nil {
			switch code {
			case http.StatusCreated, http.StatusConflict:
				w.mirror(ins)
				return
			case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			default:
				w.fatalf("insert %s: status %d: %s", uri, code, rb)
			}
		}
		if time.Now().After(deadline) {
			w.fatalf("insert %s: never landed within %s (last status %d, err %v)", uri, within, code, err)
		}
		time.Sleep(poll)
	}
}

// exercised fails a script whose traffic did nothing.
func (w *World) exercised() {
	w.t.Helper()
	if w.reads.Load() == 0 || w.seq.Load() == 0 {
		w.fatalf("soak exercised nothing: %d reads, %d insert attempts", w.reads.Load(), w.seq.Load())
	}
}

func (w *World) String() string {
	p99, n := w.windowP99()
	return fmt.Sprintf("%d reads (%d in the window, p99 %v over %d), %d partial, %d refusals, %d/%d inserts acked",
		w.reads.Load(), w.windowOK.Load(), p99, n, w.partials.Load(), w.refusals.Load(), len(w.ackedCopy()), w.seq.Load())
}
