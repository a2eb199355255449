package chaos

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/url"
	"testing"
	"time"

	"rdfcube/internal/faultfs"
	"rdfcube/internal/gen"
	"rdfcube/internal/rdf"
)

// Dimension values the single-primary worlds insert with: real hierarchy
// members, so new observations form containment chains with the paper
// corpus and with each other instead of being pairwise unrelated.
var (
	chaosAreas = []rdf.Term{
		gen.GeoAthens, gen.GeoIoannina, gen.GeoRome, gen.GeoAustin,
		gen.GeoGreece, gen.GeoItaly, gen.GeoUS,
	}
	chaosPeriods = []rdf.Term{gen.TimeJan, gen.TimeFeb, gen.Time2011}
)

// paperNode starts one node over the paper-example corpus, teaches the
// client to insert into its D3 dataset and read its first observation,
// and points traffic straight at it.
func (w *World) paperNode(name string) *node {
	w.t.Helper()
	n := w.node(name, gen.PaperExample())
	for _, area := range chaosAreas {
		for _, period := range chaosPeriods {
			w.templates = append(w.templates, insertTemplate{
				dataset:  gen.ExNS + "dataset/D3",
				dims:     map[string]string{gen.DimRefArea.Value: area.Value, gen.DimRefPeriod.Value: period.Value},
				measures: []string{gen.MeasUnemployment.Value},
			})
		}
	}
	w.sampled = []string{"0"}
	w.base.Store(n.url())
	return n
}

// statusClientClosedRequest mirrors serve's non-exported 499.
const statusClientClosedRequest = 499

// recomputeOnce triggers a batch recompute. Sometimes the client hangs
// up almost immediately — exercising the 499 path and the discard-
// partial-keep-previous-state guarantee under real concurrency.
func (w *World) recomputeOnce(rng *rand.Rand) error {
	ctx := context.Background()
	if rng.IntN(2) == 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(1+rng.IntN(3))*time.Millisecond)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, "POST", w.baseURL()+"/v1/recompute", nil)
	if err != nil {
		return err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return nil // client-side deadline fired: the 499 path on the server
	}
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK, http.StatusTooManyRequests, http.StatusServiceUnavailable,
		http.StatusGatewayTimeout, statusClientClosedRequest:
		return nil
	}
	return fmt.Errorf("recompute: unexpected status %d", resp.StatusCode)
}

// relCounts is the part of /v1/stats and of a recompute answer that says
// how many relationships the server holds.
type relCounts struct {
	Full     int  `json:"full"`
	Partial  int  `json:"partial"`
	Compl    int  `json:"complementary"`
	Degraded bool `json:"degraded"`
}

// verifyRecovered checks a restarted node: every acknowledged URI must
// answer, the server must not be degraded, and a batch recompute must
// agree with the incrementally maintained counts — recall 1 survived the
// crash.
func (w *World) verifyRecovered(n *node, round int) {
	w.t.Helper()
	for _, uri := range w.ackedCopy() {
		code, _, err := w.fetchBody(n.url(), "/v1/contains?obs="+url.QueryEscape(uri))
		if err != nil || code != http.StatusOK {
			w.fatalf("round %d: acked observation %s lost: status %d err %v after restart", round, uri, code, err)
		}
	}
	var before, batch relCounts
	w.must(w.getJSON(n.url(), "/v1/stats", &before), fmt.Sprintf("round %d stats", round))
	if before.Degraded {
		w.fatalf("round %d: server degraded after a clean restart", round)
	}
	code, body, _, err := w.post(n.url(), "/v1/recompute", nil)
	if err != nil || code != http.StatusOK {
		w.fatalf("round %d: recompute after restart: status %d err %v: %s", round, code, err, body)
	}
	w.must(json.Unmarshal(body, &batch), fmt.Sprintf("round %d recompute answer", round))
	before.Degraded = false
	if batch != before {
		w.fatalf("round %d: incremental state drifted from batch recompute: incremental %+v vs batch %+v", round, before, batch)
	}
}

// Soak runs rounds of concurrent inserts, reads and recomputes against
// one node while WAL faults fire and checkpoints race mid-round, then
// kills it — a power cut on even rounds, a graceful stop on odd ones —
// restarts it from snapshot + WAL replay, and checks what the durability
// layer promises: every acknowledged insert is still queryable, the
// server is not degraded, incremental counts match a batch recompute, and
// traffic during faults was only ever answered with the documented
// statuses (201/409/429/499/503/504), never a hang.
func Soak(t testing.TB, opt Options) {
	t.Helper()
	w := New(t, opt)
	defer w.Close()
	n := w.paperNode("node")
	faults := 0
	for round := 0; round < opt.rounds(); round++ {
		w.traffic(round, op{55, w.insertOnce}, op{30, w.readOnce}, op{8, w.recomputeOnce}, op{7, pause})
		// The controller: sleep in slices, firing a fault or a checkpoint
		// at random points of the round.
		for deadline := time.Now().Add(opt.round()); time.Now().Before(deadline); {
			time.Sleep(opt.round() / 8)
			switch w.rng.IntN(4) {
			case 0: // the next fsync on any file fails
				n.mem.Inject(faultfs.Fault{Op: faultfs.OpSync, N: 1})
				faults++
			case 1: // the next write fails
				n.mem.Inject(faultfs.Fault{Op: faultfs.OpWrite, N: 1})
				faults++
			case 2: // a checkpoint racing live inserts
				if err := n.srv.CheckpointWithin(2*time.Second, n.rot.Write); err != nil {
					w.logf("chaos: mid-round checkpoint failed (tolerated): %v", err)
				}
			}
		}
		w.stopTraffic(fmt.Sprintf("round %d", round))

		graceful := round%2 == 1
		n.stop(graceful)
		w.must(n.start(), fmt.Sprintf("round %d restart", round))
		w.logf("chaos: round %d done (graceful=%v): %d acked so far, %d faults injected", round, graceful, len(w.ackedCopy()), faults)
		w.verifyRecovered(n, round)
	}
	if len(w.ackedCopy()) == 0 {
		w.fatalf("soak made no successful inserts; the harness exercised nothing")
	}
	w.logf("chaos: soak complete: %v, %d faults, %d restarts", w, faults, opt.rounds())
}
