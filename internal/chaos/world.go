// Package chaos holds the randomized soaks for the durability,
// replication, routing and rebalancing machinery. There is one World and
// five scripts over it:
//
//	Soak               one node on a fault-injecting disk: inserts and
//	                   reads while WAL faults fire and checkpoints race,
//	                   then alternating power cuts and graceful stops
//	Failover           a primary node and two replica.Followers behind a
//	                   stable front; the primary dies mid-insert and returns
//	GatePartition      three shards behind netchaos proxies and a gate; one
//	                   shard is partitioned mid-load, then healed
//	Rebalance          a live migration onto a spare shard, stalled by a
//	                   partition, with the gate power-cut mid-flight
//	RebalanceRollback  the same migration aborted while stuck in copy
//
// A World is built from four parts that each exist once: a node (MemFS
// disk + snapshot rotator + WAL + serve.Server: start, graceful stop,
// power cut — node.go), a fleet (nodes behind netchaos proxies, a gate and
// an unsharded oracle gate — fleet.go), a client (fetch, the read and
// insert ops with their classification of answers, and the ledger of what
// was attempted and what was acknowledged — client.go) and settle (wait
// for readiness, reconcile ambiguous inserts, converge with the oracle —
// settle.go), plus the worker pool below. The scripts are what is left:
// the order of events and the invariants.
//
// Every failure raised through a World names its seed, so a red CI job is
// a one-line local repro: set that Seed in the test and run it. Round
// length scales with the CHAOS_SOAK environment variable (read by the
// tests): seconds in tier-1, minutes under -race in CI. The driving tests
// register leakcheck, so every script must tear down to zero goroutines.
package chaos

import (
	"math/rand/v2"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Options tunes one script. The zero value is a quick tier-1 run.
type Options struct {
	// Seed makes the op mix and every fault schedule reproducible (modulo
	// goroutine interleaving). Zero means 1.
	Seed uint64
	// Workers is the number of concurrent client goroutines; zero means 4.
	Workers int
	// Round is how long one stretch of traffic runs — between restarts in
	// Soak, across all phases in the gate scripts; zero means 300ms.
	Round time.Duration
	// Rounds is the number of kill/restart cycles (Soak, Failover); zero
	// means 2.
	Rounds int
	// Inserts is the size of one Failover insert wave; zero means 30.
	Inserts int
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
		return 2
	}
	return o.Rounds
}

func (o Options) inserts() int {
	if o.Inserts <= 0 {
		return 30
	}
	return o.Inserts
}

// World is one chaotic world: the processes a script started, the client
// state its traffic accumulates, and the worker pool that produces it.
type World struct {
	t   testing.TB
	opt Options
	// rng draws the script's own decisions (when to inject, how long to
	// wait before a kill); workers have their own streams.
	rng *rand.Rand

	tr     *http.Transport
	client *http.Client

	// base is the URL traffic goes to: a node's front, or the current
	// gate's (it changes when a script power-cuts the gate, so workers
	// load it per request).
	base  atomic.Value // string
	fleet *fleet       // nil in the single-primary worlds

	// Client state (client.go).
	templates []insertTemplate
	sampled   []string     // observation URIs that exist from the start
	seq       atomic.Int64 // insert attempts so far; also the URI uniquifier
	mu        sync.Mutex
	ledger    []insert        // every attempt, in order
	acked     []string        // URIs whose 201 the client saw, in ack order
	lats      []time.Duration // read latencies inside the marked window
	window    atomic.Bool     // the script's marked window (partition, stall)
	reads     atomic.Int64    // 200s observed
	windowOK  atomic.Int64    // 200s observed inside the window
	partials  atomic.Int64    // answers flagged "partial": true
	refusals  atomic.Int64    // 429/503 answers (shed, degraded, no shard, primary down)

	// The worker pool.
	stop chan struct{}
	errs chan error
	wg   sync.WaitGroup

	cleanup []func() // run last-registered-first by Close
}

// New starts an empty world; the script adds nodes or a fleet to it.
func New(t testing.TB, opt Options) *World {
	w := &World{
		t:   t,
		opt: opt,
		rng: rand.New(rand.NewPCG(opt.seed(), opt.seed()^0x9e3779b97f4a7c15)),
		tr:  &http.Transport{MaxIdleConnsPerHost: 8},
	}
	w.client = &http.Client{Transport: w.tr, Timeout: 30 * time.Second}
	w.onClose(w.tr.CloseIdleConnections)
	return w
}

func (w *World) logf(format string, a ...any) {
	if w.opt.Logf != nil {
		w.opt.Logf(format, a...)
	}
}

// fatalf fails the test, naming the seed. Workers are stopped first: they
// must not outlive the test body that failed.
func (w *World) fatalf(format string, a ...any) {
	w.t.Helper()
	w.haltTraffic()
	w.t.Fatalf("seed=%d: "+format, append([]any{w.opt.seed()}, a...)...)
}

// must is fatalf for the "err != nil" shape.
func (w *World) must(err error, what string) {
	w.t.Helper()
	if err != nil {
		w.fatalf("%s: %v", what, err)
	}
}

func (w *World) onClose(f func()) { w.cleanup = append(w.cleanup, f) }

// Close stops traffic and tears the world down in reverse build order:
// gates before the proxies they route through, proxies and followers
// before the nodes behind them.
func (w *World) Close() {
	w.haltTraffic()
	for i := len(w.cleanup) - 1; i >= 0; i-- {
		w.cleanup[i]()
	}
	w.cleanup = nil
}

// op is one entry of a traffic mix: do runs with probability weight/100.
type op struct {
	weight int
	do     func(*rand.Rand) error
}

// pause idles a worker for up to half a millisecond.
func pause(rng *rand.Rand) error {
	time.Sleep(time.Duration(rng.IntN(500)) * time.Microsecond)
	return nil
}

// traffic starts the worker pool on a mix (weights sum to 100). round
// re-seeds the workers so successive rounds draw different streams.
func (w *World) traffic(round int, mix ...op) {
	w.stop, w.errs = make(chan struct{}), make(chan error, 1)
	for i := 0; i < w.opt.workers(); i++ {
		seed := w.opt.seed()*1000 + uint64(round)*100 + uint64(i)
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			w.worker(seed, mix)
		}()
	}
}

// worker runs the mix until the pool stops or an op reports a violated
// invariant (the first one is kept for checkTraffic).
func (w *World) worker(seed uint64, mix []op) {
	rng := rand.New(rand.NewPCG(seed, seed^0xdeadbeef))
	for {
		select {
		case <-w.stop:
			return
		default:
		}
		p := rng.IntN(100)
		for _, o := range mix {
			if p -= o.weight; p >= 0 {
				continue
			}
			if err := o.do(rng); err != nil {
				select {
				case w.errs <- err:
				default:
				}
				return
			}
			break
		}
	}
}

// checkTraffic fails the test if a worker has reported a violation.
func (w *World) checkTraffic(when string) {
	w.t.Helper()
	select {
	case err := <-w.errs:
		w.fatalf("%s: %v", when, err)
	default:
	}
}

// haltTraffic stops the pool and waits for it; a no-op when none runs.
func (w *World) haltTraffic() {
	if w.stop != nil {
		close(w.stop)
		w.wg.Wait()
		w.stop = nil
	}
}

// stopTraffic ends a traffic phase: halt, then one last look at errs.
func (w *World) stopTraffic(when string) {
	w.t.Helper()
	w.haltTraffic()
	w.checkTraffic(when)
}
