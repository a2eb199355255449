package chaos

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"rdfcube/internal/core"
	"rdfcube/internal/faultfs"
	"rdfcube/internal/obsv"
	"rdfcube/internal/qb"
	"rdfcube/internal/serve"
	"rdfcube/internal/snapshot"
)

// node is one cubed-shaped process: a fault-injecting MemFS "disk", the
// snapshot rotator and WAL on it, and the serve.Server of the current
// incarnation, booted by serve.Open exactly as cmd/cubed boots.
// It is reached through a front — a stable URL that forwards to the live
// incarnation and answers 503 while there is none — so a node can die and
// come back at the address its followers, proxies and clients dial.
type node struct {
	name string
	logf func(format string, a ...any)

	mem *faultfs.MemFS
	rot *snapshot.Rotator
	col *obsv.Collector

	srv *serve.Server // nil while stopped

	front *httptest.Server
	live  atomic.Pointer[http.Handler]
}

// node computes c's relationships the way cubed does (cubeMasking, all
// three tasks, lattice retained), commits them as the disk's first
// snapshot generation and starts the first incarnation from it.
func (w *World) node(name string, c *qb.Corpus) *node {
	w.t.Helper()
	n := &node{name: name, logf: w.logf, mem: faultfs.NewMemFS(), col: obsv.NewCollector()}
	n.rot = snapshot.NewRotator(n.mem, "snap.bin")
	s, res, err := core.ComputeCorpusCtx(context.Background(), c, core.AlgorithmCubeMasking, core.Options{})
	w.must(err, name+": computing seed state")
	data, err := snapshot.New(s, res, core.BuildLattice(s)).Encode()
	w.must(err, name+": encoding seed snapshot")
	w.must(n.rot.Write(data), name+": committing seed snapshot")

	n.front = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if h := n.live.Load(); h != nil {
			(*h).ServeHTTP(rw, r)
			return
		}
		http.Error(rw, `{"error":"`+name+` is down"}`, http.StatusServiceUnavailable)
	}))
	w.onClose(n.close)
	w.must(n.start(), name)
	return n
}

func (n *node) url() string { return n.front.URL }

// start boots an incarnation from the freshest snapshot generation plus
// WAL replay — cubed's boot, serve.Open — and plugs it into the front.
func (n *node) start() error {
	srv, _, err := serve.Open(n.rot, "cube.wal", serve.Config{
		Recorder:    n.col,
		MaxInFlight: 64,
		Logf:        n.logf,
		// Short long-poll budget: a dying node must not leave follower
		// tails parked for the default 10s.
		WALPollWait: 250 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	n.srv = srv
	h := srv.Handler()
	n.live.Store(&h)
	return nil
}

// stop takes the incarnation off the front and ends it. Graceful is the
// SIGTERM path: shutdown context canceled, one bounded final checkpoint.
// Otherwise it is a power cut: the disk is cloned (which drops any fault
// schedule) and every byte that was never fsynced vanishes.
func (n *node) stop(graceful bool) {
	n.live.Store(nil)
	n.srv.BeginShutdown()
	if graceful {
		if err := n.srv.CheckpointWithin(2*time.Second, n.rot.Write); err != nil {
			// A failed or timed-out final checkpoint is survivable by
			// design: the WAL still holds the acked suffix.
			n.logf("chaos: %s: final checkpoint failed (WAL retained): %v", n.name, err)
		}
	} else {
		// The disk dies first: a request still in a handler can no longer
		// make anything durable — or acknowledge it — after the image the
		// next incarnation boots from has been taken.
		n.mem.Inject(faultfs.Fault{Op: faultfs.OpAny, N: 1, Persistent: true})
		crashed := n.mem.Clone()
		crashed.Crash()
		n.mem, n.rot = crashed, snapshot.NewRotator(crashed, "snap.bin")
	}
	n.srv.WAL().Close()
	n.srv = nil
}

// close tears down whatever incarnation is live, and the front.
func (n *node) close() {
	n.live.Store(nil)
	if n.srv != nil {
		n.srv.BeginShutdown()
		n.srv.WAL().Close()
	}
	n.front.Close()
}
