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
	"rdfcube/internal/replica"
	"rdfcube/internal/serve"
	"rdfcube/internal/snapshot"
	"rdfcube/internal/wal"
)

// FailoverOptions tunes one failover soak. The zero value is a quick
// tier-1 run: two rounds, a primary and two followers, sub-second
// staleness bound.
type FailoverOptions struct {
	// Seed fixes the insert mix. Zero means 1.
	Seed uint64
	// Rounds is the number of kill-the-primary cycles; zero means 2.
	Rounds int
	// Inserts is the number of observations inserted per round; zero
	// means 30.
	Inserts int
	// MaxStaleness is the followers' readiness bound; zero means 800ms —
	// long enough that the immediately-after-kill readiness probe lands
	// inside it, short enough that the trip assertion stays fast.
	MaxStaleness time.Duration
	// Logf receives progress lines; nil discards them.
	Logf func(format string, a ...any)
}

func (o FailoverOptions) seed() uint64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

func (o FailoverOptions) rounds() int {
	if o.Rounds <= 0 {
		return 2
	}
	return o.Rounds
}

func (o FailoverOptions) inserts() int {
	if o.Inserts <= 0 {
		return 30
	}
	return o.Inserts
}

func (o FailoverOptions) maxStaleness() time.Duration {
	if o.MaxStaleness <= 0 {
		return 800 * time.Millisecond
	}
	return o.MaxStaleness
}

// followerWorld is one read replica: its own fault-injecting disk for
// the local chain, the replica.Follower, its HTTP face, and the Run
// goroutine's lifecycle.
type followerWorld struct {
	name   string
	mem    *faultfs.MemFS
	fol    *replica.Follower
	ts     *httptest.Server
	cancel context.CancelFunc
	done   chan struct{}
}

// FailoverHarness wires a primary and a set of followers through a
// stable "virtual IP" front, so the primary can die and come back on the
// same URL the followers dial — exactly the topology the README's
// failover runbook describes.
type FailoverHarness struct {
	opt FailoverOptions
	rng *rand.Rand

	// Primary world (mirrors Harness): MemFS disk, rotator, WAL, server.
	mem  *faultfs.MemFS
	rot  *snapshot.Rotator
	col  *obsv.Collector
	srv  *serve.Server
	wlog *wal.Log

	// front is the stable address: it forwards to the live primary
	// handler, or answers 502 while the primary is dead.
	front   *httptest.Server
	current atomic.Pointer[http.Handler]

	followers []*followerWorld

	client *http.Client
	tr     *http.Transport

	seq   atomic.Int64
	mu    sync.Mutex
	acked []string
}

// NewFailover builds the world: seed snapshot on the primary disk, the
// primary incarnation, the front, and two followers with persistent
// local chains on their own disks.
func NewFailover(opt FailoverOptions) (*FailoverHarness, error) {
	h := &FailoverHarness{
		opt: opt,
		rng: rand.New(rand.NewPCG(opt.seed(), opt.seed()^0x5bd1e995)),
		mem: faultfs.NewMemFS(),
		col: obsv.NewCollector(),
		tr:  &http.Transport{MaxIdleConnsPerHost: 8},
	}
	h.client = &http.Client{Transport: h.tr, Timeout: 30 * time.Second}
	h.rot = snapshot.NewRotator(h.mem, "snap.bin")

	corpus := gen.PaperExample()
	sn, err := computeSnapshot(corpus)
	if err != nil {
		return nil, fmt.Errorf("failover: computing seed state: %w", err)
	}
	data, err := sn.Encode()
	if err != nil {
		return nil, fmt.Errorf("failover: encoding seed snapshot: %w", err)
	}
	if err := h.rot.Write(data); err != nil {
		return nil, fmt.Errorf("failover: committing seed snapshot: %w", err)
	}

	h.front = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hd := h.current.Load(); hd != nil {
			(*hd).ServeHTTP(w, r)
			return
		}
		http.Error(w, `{"error":"primary is down"}`, http.StatusBadGateway)
	}))
	if err := h.startPrimary(); err != nil {
		h.front.Close()
		return nil, err
	}
	return h, nil
}

func (h *FailoverHarness) logf(format string, a ...any) {
	if h.opt.Logf != nil {
		h.opt.Logf(format, a...)
	}
}

// startPrimary boots a primary incarnation from the freshest snapshot
// plus WAL replay and plugs it into the front.
func (h *FailoverHarness) startPrimary() error {
	wlog, recs, err := wal.Open(h.mem, "cube.wal")
	if err != nil {
		return fmt.Errorf("failover: opening WAL: %w", err)
	}
	sn, _, err := h.rot.Load()
	if err != nil {
		wlog.Close()
		return fmt.Errorf("failover: loading snapshot: %w", err)
	}
	rot := h.rot
	srv, err := serve.New(sn, serve.Config{
		Recorder:    h.col,
		WAL:         wlog,
		MaxInFlight: 64,
		SnapshotGen: func() uint64 { g, _ := rot.CurrentGen(); return g },
		// Short long-poll budget: primary death must not leave follower
		// tails parked for the default 10s during the soak.
		WALPollWait: 250 * time.Millisecond,
	})
	if err != nil {
		wlog.Close()
		return fmt.Errorf("failover: building primary: %w", err)
	}
	if len(recs) > 0 {
		if _, err := srv.Replay(recs); err != nil {
			wlog.Close()
			return fmt.Errorf("failover: replaying %d WAL records: %w", len(recs), err)
		}
	}
	h.srv, h.wlog = srv, wlog
	handler := srv.Handler()
	h.current.Store(&handler)
	return nil
}

// killPrimary takes the primary off the front. A graceful kill drains
// with a final checkpoint (a planned failover); a power cut clones the
// disk dropping every unsynced byte (a real crash). Followers keep
// serving either way.
func (h *FailoverHarness) killPrimary(graceful bool) {
	h.current.Store(nil)
	if graceful {
		h.srv.BeginShutdown()
		if err := h.srv.CheckpointWithin(2*time.Second, h.rot.Write); err != nil {
			h.logf("failover: final checkpoint failed (WAL retained): %v", err)
		}
		h.wlog.Close()
	} else {
		h.srv.BeginShutdown()
		h.wlog.Close()
		crashed := h.mem.Clone()
		crashed.Crash()
		h.mem = crashed
		h.rot = snapshot.NewRotator(h.mem, "snap.bin")
	}
	h.srv, h.wlog = nil, nil
}

// startFollower boots one follower on its own disk, dialing the front.
func (h *FailoverHarness) startFollower(name string) *followerWorld {
	fw := &followerWorld{
		name: name,
		mem:  faultfs.NewMemFS(),
		done: make(chan struct{}),
	}
	fol, err := replica.New(replica.Config{
		Primary:       h.front.URL,
		Client:        &http.Client{Transport: h.tr},
		FS:            fw.mem,
		SnapshotPath:  "replica.bin",
		Tasks:         core.TaskAll,
		Recorder:      obsv.NewCollector(),
		MaxStaleness:  h.opt.maxStaleness(),
		PollWait:      200 * time.Millisecond,
		ReconnectBase: 20 * time.Millisecond,
		ReconnectMax:  200 * time.Millisecond,
		Logf: func(format string, a ...any) {
			h.logf("["+name+"] "+format, a...)
		},
	})
	if err != nil {
		panic("failover: replica.New: " + err.Error()) // config is static; cannot fail
	}
	fw.fol = fol
	fw.ts = httptest.NewServer(fol.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	fw.cancel = cancel
	go func() {
		defer close(fw.done)
		_ = fol.Run(ctx)
	}()
	h.followers = append(h.followers, fw)
	return fw
}

// Close tears everything down, followers first.
func (h *FailoverHarness) Close() {
	for _, fw := range h.followers {
		fw.cancel()
		<-fw.done
		fw.ts.Close()
	}
	if h.srv != nil {
		h.srv.BeginShutdown()
	}
	if h.wlog != nil {
		h.wlog.Close()
	}
	h.front.Close()
	h.tr.CloseIdleConnections()
}

// insert posts one deterministic observation through the front and
// records the URI when the primary acks it.
func (h *FailoverHarness) insert(rng *rand.Rand) error {
	uri := fmt.Sprintf("%sobs/failover-%d", gen.ExNS, h.seq.Add(1))
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
	resp, err := h.client.Post(h.front.URL+"/v1/observations", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil // primary died under the request; ack never arrived
	}
	defer drain(resp)
	switch resp.StatusCode {
	case http.StatusCreated:
		h.mu.Lock()
		h.acked = append(h.acked, uri)
		h.mu.Unlock()
		return nil
	case http.StatusServiceUnavailable, http.StatusTooManyRequests,
		http.StatusBadGateway, http.StatusConflict:
		return nil // shed, degraded, or primary down: legitimate refusals
	default:
		return fmt.Errorf("insert %s: unexpected status %d", uri, resp.StatusCode)
	}
}

func (h *FailoverHarness) ackedCopy() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]string(nil), h.acked...)
}

// primaryEnd reads the primary's durable logical WAL end from /v1/stats.
func (h *FailoverHarness) primaryEnd() (int64, error) {
	var stats struct {
		WALEnd int64 `json:"walEnd"`
	}
	resp, err := h.client.Get(h.front.URL + "/v1/stats")
	if err != nil {
		return 0, err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("primary stats: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&stats); err != nil {
		return 0, err
	}
	return stats.WALEnd, nil
}

// waitConverged blocks until every follower's applied offset reaches the
// primary's current durable end (or the deadline passes).
func (h *FailoverHarness) waitConverged(timeout time.Duration) error {
	end, err := h.primaryEnd()
	if err != nil {
		return fmt.Errorf("failover: reading primary end: %w", err)
	}
	deadline := time.Now().Add(timeout)
	for _, fw := range h.followers {
		for fw.fol.State().Offset() < end {
			if time.Now().After(deadline) {
				return fmt.Errorf("failover: %s stuck at offset %d, primary end %d",
					fw.name, fw.fol.State().Offset(), end)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

// readyState fetches one follower's /readyz, returning the HTTP status
// and the reported state string.
func (fw *followerWorld) readyState(client *http.Client) (int, string, error) {
	resp, err := client.Get(fw.ts.URL + "/readyz")
	if err != nil {
		return 0, "", err
	}
	defer drain(resp)
	var body struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&body); err != nil {
		return resp.StatusCode, "", err
	}
	return resp.StatusCode, body.Status, nil
}

// get fetches a path's body bytes and status from a base URL.
func (h *FailoverHarness) get(base, path string) (int, []byte, error) {
	resp, err := h.client.Get(base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	return resp.StatusCode, data, err
}

// verifyParity asserts byte-identical /v1/related answers between the
// primary and every follower for a sample of observations — replication
// must not just converge approximately, it must serve the same bytes.
func (h *FailoverHarness) verifyParity() error {
	acked := h.ackedCopy()
	sample := []string{"0"} // a seed observation from the paper corpus
	for i := 0; i < len(acked); i += 1 + len(acked)/16 {
		sample = append(sample, acked[i])
	}
	if len(acked) > 0 {
		sample = append(sample, acked[len(acked)-1])
	}
	for _, obs := range sample {
		path := "/v1/related?obs=" + url.QueryEscape(obs)
		code, want, err := h.get(h.front.URL, path)
		if err != nil {
			return fmt.Errorf("parity %s: primary: %w", obs, err)
		}
		if code != http.StatusOK {
			return fmt.Errorf("parity %s: primary status %d", obs, code)
		}
		for _, fw := range h.followers {
			code, got, err := h.get(fw.ts.URL, path)
			if err != nil {
				return fmt.Errorf("parity %s: %s: %w", obs, fw.name, err)
			}
			if code != http.StatusOK {
				return fmt.Errorf("parity %s: %s status %d", obs, fw.name, code)
			}
			if !bytes.Equal(want, got) {
				return fmt.Errorf("parity %s: %s diverged from primary:\n  primary:  %s\n  follower: %s",
					obs, fw.name, want, got)
			}
		}
	}
	return nil
}

// verifyWriteRejection asserts followers answer writes with 503 plus the
// Leader redirect hint.
func (h *FailoverHarness) verifyWriteRejection() error {
	for _, fw := range h.followers {
		resp, err := h.client.Post(fw.ts.URL+"/v1/observations", "application/json",
			bytes.NewReader([]byte(`{"dataset":"d","uri":"u","dimensions":{}}`)))
		if err != nil {
			return fmt.Errorf("%s write: %w", fw.name, err)
		}
		leader := resp.Header.Get(serve.LeaderHeader)
		code := resp.StatusCode
		drain(resp)
		if code != http.StatusServiceUnavailable {
			return fmt.Errorf("%s accepted a write: status %d (want 503)", fw.name, code)
		}
		if leader != h.front.URL {
			return fmt.Errorf("%s Leader hint %q, want %q", fw.name, leader, h.front.URL)
		}
	}
	return nil
}

// failoverRound kills the primary mid-stream, asserts the followers keep
// serving reads and only lose readiness when staleness exceeds the
// bound, then restarts the primary and waits for reconvergence.
func (h *FailoverHarness) failoverRound(round int) error {
	rng := rand.New(rand.NewPCG(h.opt.seed()+uint64(round), 0xabcdef))
	// The insert goroutine runs while this goroutine draws the kill
	// delay, so it gets its own rand stream.
	insertRNG := rand.New(rand.NewPCG(h.opt.seed()+uint64(round), 0xfeed))

	// Traffic runs concurrently with the kill so the WAL stream is cut
	// mid-flight, not at a tidy boundary.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	insertErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		for i := 0; i < h.opt.inserts(); i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := h.insert(insertRNG); err != nil {
				select {
				case insertErr <- err:
				default:
				}
				return
			}
		}
	}()
	time.Sleep(time.Duration(1+rng.IntN(20)) * time.Millisecond)

	graceful := round%2 == 1
	h.killPrimary(graceful)
	killedAt := time.Now()
	close(stop)
	wg.Wait()
	select {
	case err := <-insertErr:
		return fmt.Errorf("round %d inserts: %w", round, err)
	default:
	}

	// Immediately after the kill the followers must still be READY: their
	// answers are stale by at most the replication lag, and the bound has
	// not passed. Probe only while provably inside the bound — scheduler
	// stalls must not turn a correct 503 into a test failure.
	for _, fw := range h.followers {
		if time.Since(killedAt) > h.opt.maxStaleness()/2 {
			break
		}
		code, state, err := fw.readyState(h.client)
		if err != nil {
			return fmt.Errorf("round %d: %s readyz right after kill: %w", round, fw.name, err)
		}
		if code != http.StatusOK {
			return fmt.Errorf("round %d: %s lost readiness %s after the kill (status %d, state %s) — staleness bound is %s",
				round, fw.name, time.Since(killedAt), code, state, h.opt.maxStaleness())
		}
	}

	// ... and reads must still work against a dead primary.
	for _, fw := range h.followers {
		code, _, err := h.get(fw.ts.URL, "/v1/related?obs=0")
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("round %d: %s read during outage: status %d err %v", round, fw.name, code, err)
		}
	}

	// Once the bound passes, readiness MUST flip to 503/stale.
	deadline := time.Now().Add(h.opt.maxStaleness() + 5*time.Second)
	for _, fw := range h.followers {
		for {
			code, state, err := fw.readyState(h.client)
			if err != nil {
				return fmt.Errorf("round %d: %s readyz during outage: %w", round, fw.name, err)
			}
			if code == http.StatusServiceUnavailable && state == "stale" {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("round %d: %s never tripped its staleness bound (%s): still status %d state %s",
					round, fw.name, h.opt.maxStaleness(), code, state)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	// Resurrect the primary on the same front URL. The new incarnation
	// mints a new stream, so followers get 410 and re-bootstrap.
	if err := h.startPrimary(); err != nil {
		return fmt.Errorf("round %d: %w", round, err)
	}
	if err := h.waitConverged(15 * time.Second); err != nil {
		return fmt.Errorf("round %d after restart: %w", round, err)
	}
	// Reconverged followers must become ready again once their next
	// successful poll (or the 410-triggered re-bootstrap) resets the
	// caught-up clock — poll for it, the reconnect backoff decides when.
	readyBy := time.Now().Add(15 * time.Second)
	for _, fw := range h.followers {
		for {
			code, state, err := fw.readyState(h.client)
			if err != nil {
				return fmt.Errorf("round %d: %s readyz after reconvergence: %w", round, fw.name, err)
			}
			if code == http.StatusOK {
				break
			}
			if time.Now().After(readyBy) {
				return fmt.Errorf("round %d: %s never regained readiness after reconvergence: status %d state %s",
					round, fw.name, code, state)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	h.logf("failover: round %d done (graceful=%v): %d acked total, followers reconverged",
		round, graceful, len(h.ackedCopy()))
	return nil
}

// Run drives the full failover soak.
func (h *FailoverHarness) Run(t testing.TB) {
	t.Helper()
	defer h.Close()

	// Follower A watches from the start; a first insert wave lands before
	// follower B exists, so B's bootstrap happens mid-stream and must
	// cover data it never saw on the wire.
	h.startFollower("follower-a")
	rng := rand.New(rand.NewPCG(h.opt.seed()^0x1234, 1))
	for i := 0; i < h.opt.inserts(); i++ {
		if err := h.insert(rng); err != nil {
			t.Fatal(err)
		}
	}
	h.startFollower("follower-b")
	if err := h.waitConverged(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := h.verifyParity(); err != nil {
		t.Fatal(err)
	}
	if err := h.verifyWriteRejection(); err != nil {
		t.Fatal(err)
	}

	for round := 0; round < h.opt.rounds(); round++ {
		if err := h.failoverRound(round); err != nil {
			t.Fatal(err)
		}
		if err := h.verifyParity(); err != nil {
			t.Fatalf("round %d parity: %v", round, err)
		}
	}

	// Every insert the primary ever acked must be queryable on every
	// follower — replication lost nothing across two primary deaths.
	acked := h.ackedCopy()
	if len(acked) == 0 {
		t.Fatal("failover soak acked no inserts; the harness exercised nothing")
	}
	for _, fw := range h.followers {
		for _, uri := range acked {
			code, _, err := h.get(fw.ts.URL, "/v1/contains?obs="+url.QueryEscape(uri))
			if err != nil {
				t.Fatalf("final check %s on %s: %v", uri, fw.name, err)
			}
			if code != http.StatusOK {
				t.Fatalf("acked observation %s missing on %s: status %d", uri, fw.name, code)
			}
		}
		if fw.fol.State().Bootstraps() < 2 {
			t.Fatalf("%s bootstrapped %d times; expected at least 2 (initial + post-failover)",
				fw.name, fw.fol.State().Bootstraps())
		}
	}
	h.logf("failover: soak complete: %d inserts acked, %d followers, %d rounds",
		len(acked), len(h.followers), h.opt.rounds())
}
