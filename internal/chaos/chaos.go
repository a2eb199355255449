// Package chaos is a randomized soak harness for the durability and
// degradation machinery: it runs a live serve.Server over a fault-
// injecting in-memory filesystem, hammers it with concurrent inserts,
// queries and recomputes while WAL faults fire and checkpoints race,
// then kills the world — sometimes a SIGTERM-shaped graceful stop with
// a bounded final checkpoint, sometimes a power cut that drops every
// unsynced byte — restarts from snapshot + WAL replay, and checks the
// invariants the rest of this repo promises one at a time:
//
//   - every acknowledged insert is still queryable after the restart;
//   - a batch recompute over the recovered state succeeds and the
//     incrementally maintained counts match it exactly;
//   - the server never wedges: traffic during faults is answered with
//     the documented statuses (201/409/429/499/503/504), never a hang;
//   - nothing leaks: the soak test registers leakcheck and every round
//     must tear down to zero new goroutines.
//
// The harness is deliberately a library (driven by soak_test.go and the
// CI chaos-soak job) so its round length scales with the CHAOS_SOAK
// environment variable: seconds in tier-1, minutes under -race in CI.
package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rdfcube/internal/core"
	"rdfcube/internal/faultfs"
	"rdfcube/internal/gen"
	"rdfcube/internal/obsv"
	"rdfcube/internal/qb"
	"rdfcube/internal/rdf"
	"rdfcube/internal/serve"
	"rdfcube/internal/snapshot"
	"rdfcube/internal/wal"
)

// Options tunes one soak. The zero value is a quick tier-1 run.
type Options struct {
	// Seed makes the op mix and fault schedule reproducible (modulo
	// goroutine interleaving). Zero means 1.
	Seed uint64
	// Workers is the number of concurrent client goroutines; zero means 4.
	Workers int
	// Round is how long traffic runs between restarts; zero means 300ms.
	Round time.Duration
	// Rounds is the number of kill/restart cycles; zero means 3.
	Rounds int
	// Logf receives progress lines; nil discards them.
	Logf func(format string, a ...any)
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

func (o Options) workers() int {
	if o.Workers <= 0 {
		return 4
	}
	return o.Workers
}

func (o Options) round() time.Duration {
	if o.Round <= 0 {
		return 300 * time.Millisecond
	}
	return o.Round
}

func (o Options) rounds() int {
	if o.Rounds <= 0 {
		return 3
	}
	return o.Rounds
}

// dimension values drawn by the inserters: real hierarchy members, so
// new observations form containment chains with the paper corpus and
// with each other instead of being pairwise unrelated.
var (
	chaosAreas = []rdf.Term{
		gen.GeoAthens, gen.GeoIoannina, gen.GeoRome, gen.GeoAustin,
		gen.GeoGreece, gen.GeoItaly, gen.GeoUS,
	}
	chaosPeriods = []rdf.Term{gen.TimeJan, gen.TimeFeb, gen.Time2011}
)

// Harness owns one chaotic world: a fault-injecting MemFS "disk", the
// WAL and snapshot rotator on it, and the live server of the current
// incarnation.
type Harness struct {
	opt Options
	rng *rand.Rand

	mem *faultfs.MemFS
	rot *snapshot.Rotator

	srv  *serve.Server
	ts   *httptest.Server
	wlog *wal.Log
	col  *obsv.Collector

	tr     *http.Transport
	client *http.Client

	mu    sync.Mutex
	acked []string // URIs the server 201-acknowledged, in ack order

	seq      atomic.Int64 // URI uniquifier
	inserts  atomic.Int64 // total 201s across all rounds
	refusals atomic.Int64 // 429/503 answers observed (shed/degraded/breaker)
	faults   atomic.Int64 // faults injected
	restarts atomic.Int64
}

// New builds the initial world: the paper-example corpus is computed
// once with cubeMasking, committed as snapshot generation 1, and the
// first server incarnation starts from it with an empty WAL.
func New(opt Options) (*Harness, error) {
	h := &Harness{
		opt: opt,
		rng: rand.New(rand.NewPCG(opt.seed(), opt.seed()^0x9e3779b97f4a7c15)),
		mem: faultfs.NewMemFS(),
		col: obsv.NewCollector(),
		tr:  &http.Transport{MaxIdleConnsPerHost: 8},
	}
	h.client = &http.Client{Transport: h.tr, Timeout: 30 * time.Second}
	h.rot = snapshot.NewRotator(h.mem, "snap.bin")

	corpus := gen.PaperExample()
	sn, err := computeSnapshot(corpus)
	if err != nil {
		return nil, fmt.Errorf("chaos: computing seed state: %w", err)
	}
	data, err := sn.Encode()
	if err != nil {
		return nil, fmt.Errorf("chaos: encoding seed snapshot: %w", err)
	}
	if err := h.rot.Write(data); err != nil {
		return nil, fmt.Errorf("chaos: committing seed snapshot: %w", err)
	}
	if err := h.start(); err != nil {
		return nil, err
	}
	return h, nil
}

// computeSnapshot computes a corpus's relationship state the way cubed
// does — cubeMasking over all three tasks, sorted, lattice retained — the
// state every harness seeds its servers with.
func computeSnapshot(c *qb.Corpus) (*snapshot.Snapshot, error) {
	s, res, err := core.ComputeCorpusCtx(context.Background(), c, core.AlgorithmCubeMasking, core.Options{})
	if err != nil {
		return nil, err
	}
	return snapshot.New(s, res, core.BuildLattice(s)), nil
}

func (h *Harness) logf(format string, a ...any) {
	if h.opt.Logf != nil {
		h.opt.Logf(format, a...)
	}
}

// start boots a server incarnation from the freshest snapshot plus WAL
// replay — exactly the cubed startup path.
func (h *Harness) start() error {
	wlog, recs, err := wal.Open(h.mem, "cube.wal")
	if err != nil {
		return fmt.Errorf("chaos: opening WAL: %w", err)
	}
	sn, _, err := h.rot.Load()
	if err != nil {
		wlog.Close()
		return fmt.Errorf("chaos: loading snapshot: %w", err)
	}
	srv, err := serve.New(sn, serve.Config{
		Recorder:         h.col,
		WAL:              wlog,
		MaxInFlight:      64,
		RecomputeTimeout: 30 * time.Second,
		BreakerThreshold: 3,
	})
	if err != nil {
		wlog.Close()
		return fmt.Errorf("chaos: building server: %w", err)
	}
	if len(recs) > 0 {
		if _, err := srv.Replay(recs); err != nil {
			wlog.Close()
			return fmt.Errorf("chaos: replaying %d WAL records: %w", len(recs), err)
		}
	}
	h.srv, h.wlog = srv, wlog
	h.ts = httptest.NewServer(srv.Handler())
	return nil
}

// stop tears the incarnation down. Graceful is the SIGTERM path:
// shutdown context canceled, HTTP drained, one bounded final checkpoint.
// Non-graceful is a power cut: the disk is cloned and every byte that
// was never fsynced vanishes.
func (h *Harness) stop(graceful bool) error {
	if graceful {
		h.srv.BeginShutdown()
		h.ts.Close()
		if err := h.srv.CheckpointWithin(2*time.Second, h.rot.Write); err != nil {
			// A failed or timed-out final checkpoint is survivable by
			// design: the WAL still holds the acked suffix.
			h.logf("chaos: final checkpoint failed (WAL retained): %v", err)
		}
		h.wlog.Close()
	} else {
		h.ts.Close()
		h.wlog.Close()
		crashed := h.mem.Clone() // Clone drops the fault schedule
		crashed.Crash()          // ... and the power cut drops unsynced bytes
		h.mem = crashed
		h.rot = snapshot.NewRotator(h.mem, "snap.bin")
	}
	h.tr.CloseIdleConnections()
	h.srv, h.ts, h.wlog = nil, nil, nil
	return nil
}

// Close tears down whatever incarnation is live.
func (h *Harness) Close() {
	if h.ts != nil {
		h.ts.Close()
	}
	if h.wlog != nil {
		h.wlog.Close()
	}
	h.tr.CloseIdleConnections()
}

// ackedCopy snapshots the acknowledged URI list.
func (h *Harness) ackedCopy() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]string(nil), h.acked...)
}

// insertOnce posts one observation with randomized dimension values.
// 201 records the URI as acknowledged; 503 (degraded / shutting down)
// and 409 (duplicate after a replayed round) are legitimate refusals.
func (h *Harness) insertOnce(rng *rand.Rand) error {
	uri := fmt.Sprintf("%sobs/chaos-%d", gen.ExNS, h.seq.Add(1))
	body, err := json.Marshal(map[string]any{
		"dataset": gen.ExNS + "dataset/D3",
		"uri":     uri,
		"dimensions": map[string]string{
			gen.DimRefArea.Value:   chaosAreas[rng.IntN(len(chaosAreas))].Value,
			gen.DimRefPeriod.Value: chaosPeriods[rng.IntN(len(chaosPeriods))].Value,
		},
		"measures": map[string]string{
			gen.MeasUnemployment.Value: fmt.Sprintf("0.%02d", rng.IntN(100)),
		},
	})
	if err != nil {
		return err
	}
	resp, err := h.client.Post(h.ts.URL+"/v1/observations", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil // connection torn down mid-round; the ack never arrived
	}
	defer drain(resp)
	switch resp.StatusCode {
	case http.StatusCreated:
		h.inserts.Add(1)
		h.mu.Lock()
		h.acked = append(h.acked, uri)
		h.mu.Unlock()
		return nil
	case http.StatusServiceUnavailable, http.StatusTooManyRequests:
		h.refusals.Add(1)
		return nil
	case http.StatusConflict:
		return nil
	default:
		return fmt.Errorf("insert %s: unexpected status %d", uri, resp.StatusCode)
	}
}

// queryOnce asks for the containment fan-out of a random acknowledged
// observation; on the live server that inserted it, anything but 200
// (or a 429 shed under load) is an invariant violation.
func (h *Harness) queryOnce(rng *rand.Rand) error {
	acked := h.ackedCopy()
	obs := "0" // seed observation from the paper corpus
	if len(acked) > 0 && rng.IntN(4) > 0 {
		obs = acked[rng.IntN(len(acked))]
	}
	resp, err := h.client.Get(h.ts.URL + "/v1/related?obs=" + url.QueryEscape(obs))
	if err != nil {
		return nil
	}
	defer drain(resp)
	switch resp.StatusCode {
	case http.StatusOK:
		return nil
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		h.refusals.Add(1)
		return nil
	default:
		return fmt.Errorf("query %s: unexpected status %d", obs, resp.StatusCode)
	}
}

// recomputeOnce triggers a batch recompute. Sometimes the client hangs
// up almost immediately — exercising the 499 path and the discard-
// partial-keep-previous-state guarantee under real concurrency.
func (h *Harness) recomputeOnce(rng *rand.Rand) error {
	ctx := context.Background()
	if rng.IntN(2) == 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(1+rng.IntN(3))*time.Millisecond)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, "POST", h.ts.URL+"/v1/recompute", nil)
	if err != nil {
		return err
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return nil // client-side deadline fired: the 499 path on the server
	}
	defer drain(resp)
	switch resp.StatusCode {
	case http.StatusOK, http.StatusTooManyRequests, http.StatusServiceUnavailable,
		http.StatusGatewayTimeout, statusClientClosedRequest:
		return nil
	default:
		return fmt.Errorf("recompute: unexpected status %d", resp.StatusCode)
	}
}

// statusClientClosedRequest mirrors serve's non-exported 499.
const statusClientClosedRequest = 499

func drain(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}

// worker runs the randomized op mix until stop closes.
func (h *Harness) worker(stop <-chan struct{}, seed uint64, errs chan<- error) {
	rng := rand.New(rand.NewPCG(seed, seed^0xdeadbeef))
	for {
		select {
		case <-stop:
			return
		default:
		}
		var err error
		switch p := rng.IntN(100); {
		case p < 55:
			err = h.insertOnce(rng)
		case p < 85:
			err = h.queryOnce(rng)
		case p < 93:
			err = h.recomputeOnce(rng)
		default:
			time.Sleep(time.Duration(rng.IntN(500)) * time.Microsecond)
		}
		if err != nil {
			select {
			case errs <- err:
			default:
			}
			return
		}
	}
}

// chaosRound runs one round of traffic with mid-round fault injections
// and checkpoints, then stops the incarnation (gracefully on odd
// rounds, power cut on even ones) and restarts it.
func (h *Harness) chaosRound(round int) error {
	stop := make(chan struct{})
	errs := make(chan error, 1)
	var wg sync.WaitGroup
	for w := 0; w < h.opt.workers(); w++ {
		wg.Add(1)
		seed := h.opt.seed()*1000 + uint64(round)*100 + uint64(w)
		go func() {
			defer wg.Done()
			h.worker(stop, seed, errs)
		}()
	}

	// The controller: sleep in slices, firing a fault or a checkpoint at
	// random points of the round.
	deadline := time.Now().Add(h.opt.round())
	for time.Now().Before(deadline) {
		time.Sleep(h.opt.round() / 8)
		switch h.rng.IntN(4) {
		case 0: // one-shot fsync fault: next sync on any file fails
			h.mem.Inject(faultfs.Fault{Op: faultfs.OpSync, N: 1})
			h.faults.Add(1)
		case 1: // one-shot write fault
			h.mem.Inject(faultfs.Fault{Op: faultfs.OpWrite, N: 1})
			h.faults.Add(1)
		case 2: // checkpoint racing live inserts
			if err := h.srv.CheckpointWithin(2*time.Second, h.rot.Write); err != nil {
				h.logf("chaos: mid-round checkpoint failed (tolerated): %v", err)
			}
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		return fmt.Errorf("round %d: %w", round, err)
	default:
	}

	graceful := round%2 == 1
	if err := h.stop(graceful); err != nil {
		return fmt.Errorf("round %d stop: %w", round, err)
	}
	if err := h.start(); err != nil {
		return fmt.Errorf("round %d restart: %w", round, err)
	}
	h.restarts.Add(1)
	h.logf("chaos: round %d done (graceful=%v): %d acked so far, %d faults injected",
		round, graceful, h.inserts.Load(), h.faults.Load())
	return nil
}

// verify checks the recovered incarnation: every acknowledged URI must
// answer, and a batch recompute must agree with the incrementally
// maintained counts — recall 1 survived the crash.
func (h *Harness) verify() error {
	for _, uri := range h.ackedCopy() {
		resp, err := h.client.Get(h.ts.URL + "/v1/contains?obs=" + url.QueryEscape(uri))
		if err != nil {
			return fmt.Errorf("verify %s: %w", uri, err)
		}
		code := resp.StatusCode
		drain(resp)
		if code != http.StatusOK {
			return fmt.Errorf("acked observation %s lost: status %d after restart", uri, code)
		}
	}

	var before struct {
		Full    int  `json:"full"`
		Partial int  `json:"partial"`
		Compl   int  `json:"complementary"`
		Degr    bool `json:"degraded"`
	}
	if err := h.getJSON("/v1/stats", &before); err != nil {
		return err
	}
	if before.Degr {
		return fmt.Errorf("server degraded after a clean restart")
	}
	var rc struct {
		Full    int `json:"full"`
		Partial int `json:"partial"`
		Compl   int `json:"complementary"`
	}
	if err := h.postJSON("/v1/recompute", &rc); err != nil {
		return err
	}
	if rc.Full != before.Full || rc.Partial != before.Partial || rc.Compl != before.Compl {
		return fmt.Errorf("incremental state drifted from batch recompute: incremental {full %d, partial %d, compl %d} vs batch {full %d, partial %d, compl %d}",
			before.Full, before.Partial, before.Compl, rc.Full, rc.Partial, rc.Compl)
	}
	return nil
}

func (h *Harness) getJSON(path string, v any) error {
	resp, err := h.client.Get(h.ts.URL + path)
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(v)
}

func (h *Harness) postJSON(path string, v any) error {
	resp, err := h.client.Post(h.ts.URL+path, "application/json", nil)
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(v)
}

// Run drives the full soak: rounds of traffic + faults + restart, a
// verification pass after every restart, and a final summary assertion
// that the soak actually exercised something.
func (h *Harness) Run(t testing.TB) {
	t.Helper()
	defer h.Close()
	for round := 0; round < h.opt.rounds(); round++ {
		if err := h.chaosRound(round); err != nil {
			t.Fatal(err)
		}
		if err := h.verify(); err != nil {
			t.Fatalf("round %d verification: %v", round, err)
		}
	}
	if h.inserts.Load() == 0 {
		t.Fatal("soak made no successful inserts; the harness exercised nothing")
	}
	h.logf("chaos: soak complete: %d inserts acked, %d refusals, %d faults, %d restarts",
		h.inserts.Load(), h.refusals.Load(), h.faults.Load(), h.restarts.Load())
}
