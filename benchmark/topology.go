package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"rdfcube/internal/gate"
	"rdfcube/internal/gen"
	"rdfcube/internal/loadgen"
	"rdfcube/internal/obsv"
	"rdfcube/internal/qb"
	"rdfcube/internal/replica"
	"rdfcube/internal/serve"
)

// The sharded topology: a gate in front of three relationship-closed
// shards (gen.ShardWorlds), each a primary with a WAL on the OS filesystem
// and a real replica.Follower tailing it, every hop a loopback socket.

// listener serves one handler on an ephemeral loopback port.
type listener struct {
	srv *http.Server
	url string
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String()}
	go func() { _ = l.srv.Serve(ln) }()
	return l, nil
}

func (l *listener) close() {
	if l == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := l.srv.Shutdown(ctx); err != nil {
		_ = l.srv.Close()
	}
}

// shard is one primary, its follower and their listeners.
type shard struct {
	name      string
	datasets  []string
	primary   *node
	primaryLn *listener
	fol       *replica.Follower
	folLn     *listener
	folCancel context.CancelFunc
	folDone   chan struct{}
	bootstrap time.Duration // follower start → first state served
}

// topo is the whole fleet plus the socket client that drives it.
type topo struct {
	shards   []*shard
	combined *qb.Corpus // the unsharded oracle's input, never served
	gate     *gate.Gate
	gateRec  *obsv.Collector
	gateLn   *listener
	client   *http.Transport
	builds   []*built      // per-shard compute timings
	gen      time.Duration // gen.ShardWorlds, once
	base     []counts      // per-shard relationship counts before any insert
}

// buildTopo generates the shard worlds from the seed and boots the fleet
// under dir. The oracle corpus comes from a second, identical generator
// call, because the shard servers adopt and grow the first one's datasets.
func buildTopo(dir string, seed int64, obsPerDataset, workers, clients int) (*topo, error) {
	cfg := gen.ShardWorldsConfig{Seed: seed, ObsPerDataset: obsPerDataset}
	t0 := time.Now()
	worlds, _ := gen.ShardWorlds(cfg)
	genTime := time.Since(t0)
	_, combined := gen.ShardWorlds(cfg)
	t := &topo{
		combined: combined,
		gen:      genTime,
		gateRec:  obsv.NewCollector(),
		client:   &http.Transport{MaxIdleConnsPerHost: 2 * clients},
	}
	var shardCfgs []gate.ShardConfig
	for i, w := range worlds {
		b, err := buildState(w.Corpus, workers, nil, 0)
		if err != nil {
			t.close()
			return nil, err
		}
		t.builds = append(t.builds, b)
		t.base = append(t.base, countsOf(b.res))
		sh := &shard{name: w.Name, datasets: w.Datasets}
		t.shards = append(t.shards, sh)
		sdir := filepath.Join(dir, fmt.Sprintf("shard%d", i))
		if sh.primary, err = startNode(sdir, b, true, true); err != nil {
			t.close()
			return nil, err
		}
		if sh.primaryLn, err = listen(sh.primary.h); err != nil {
			t.close()
			return nil, err
		}
		if err := sh.startFollower(filepath.Join(dir, fmt.Sprintf("follower%d", i))); err != nil {
			t.close()
			return nil, err
		}
		shardCfgs = append(shardCfgs, gate.ShardConfig{
			Name: w.Name, Primary: sh.primaryLn.url, Replica: sh.folLn.url, Datasets: w.Datasets,
		})
	}
	// The gate runs cubegate's shipped policy: every Config default.
	g, err := gate.New(gate.Config{Shards: shardCfgs, Recorder: t.gateRec})
	if err != nil {
		t.close()
		return nil, err
	}
	t.gate = g
	if t.gateLn, err = listen(g.Handler()); err != nil {
		t.close()
		return nil, err
	}
	if err := t.awaitReady(10 * time.Second); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

// startFollower boots a persistent follower of the shard's primary and
// waits for its bootstrap.
func (sh *shard) startFollower(dir string) error {
	fol, err := replica.New(replica.Config{
		Primary:      sh.primaryLn.url,
		SnapshotPath: filepath.Join(dir, "replica.bin"),
		Recorder:     obsv.NewCollector(),
		PollWait:     500 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	sh.fol = fol
	if sh.folLn, err = listen(fol.Handler()); err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	sh.folCancel, sh.folDone = cancel, make(chan struct{})
	t0 := time.Now()
	go func() {
		defer close(sh.folDone)
		_ = fol.Run(ctx)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for fol.Server() == nil {
		if time.Now().After(deadline) {
			return fmt.Errorf("follower of %s did not bootstrap within 30s", sh.name)
		}
		time.Sleep(time.Millisecond)
	}
	sh.bootstrap = time.Since(t0)
	return nil
}

// awaitReady polls the gate's /readyz until every shard is available.
func (t *topo) awaitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		status, body, _, err := issue(t.gateTarget(), loadgen.Op{Method: "GET", Path: "/readyz"})
		if err == nil && status == http.StatusOK && bytes.Contains(body, []byte(`"status":"ready"`)) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gate not ready within %s: status %d err %v body %s", limit, status, err, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (t *topo) gateTarget() target { return target{rt: t.client, base: t.gateLn.url} }

func (t *topo) shardTarget(i int) target {
	return target{rt: t.client, base: t.shards[i].primaryLn.url}
}

// awaitLevel waits until every follower serves as many observations as
// its primary, and reports whether they got there.
func (t *topo) awaitLevel(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for _, sh := range t.shards {
		for {
			p, perr := observations(inProcess(sh.primary.h))
			f, ferr := observations(inProcess(sh.fol.Handler()))
			if perr == nil && ferr == nil && p == f {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("follower of %s not level with its primary: %d vs %d observations (errs %v, %v)", sh.name, f, p, ferr, perr)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

// observations reads the observation count off a server's /v1/stats.
func observations(tg target) (int, error) {
	body, err := get(tg, "/v1/stats")
	if err != nil {
		return 0, err
	}
	_, n, err := statsCounts(body)
	return n, err
}

// close tears the fleet down: gate first, then followers, then primaries.
func (t *topo) close() {
	if t == nil {
		return
	}
	t.gateLn.close()
	if t.gate != nil {
		t.gate.Close()
	}
	// A follower checkpoints its state on the way out: stop them together.
	for _, sh := range t.shards {
		if sh.folCancel != nil {
			sh.folCancel()
		}
	}
	for _, sh := range t.shards {
		if sh.folCancel != nil {
			<-sh.folDone
		}
		sh.folLn.close()
		sh.primary.close()
		sh.primaryLn.close()
	}
	t.client.CloseIdleConnections()
}

// oracle serves the combined corpus from one unsharded server behind a
// one-shard gate, so ground truth is rendered by the same merge path.
type oracle struct {
	srv  *serve.Server
	gate *gate.Gate
	h    http.Handler
}

func buildOracle(combined *qb.Corpus, workers int) (*oracle, error) {
	b, err := buildState(combined, workers, nil, 0)
	if err != nil {
		return nil, err
	}
	nd, err := startNode("", b, false, false)
	if err != nil {
		return nil, err
	}
	var datasets []string
	for _, ds := range combined.Datasets {
		datasets = append(datasets, ds.URI.Value)
	}
	g, err := gate.New(gate.Config{
		Shards:        []gate.ShardConfig{{Name: "all", Primary: "http://oracle.invalid", Datasets: datasets}},
		Transport:     loadgen.HandlerTransport{H: nd.h},
		ProbeInterval: -1,
	})
	if err != nil {
		return nil, err
	}
	return &oracle{srv: nd.srv, gate: g, h: g.Handler()}, nil
}

func (o *oracle) close() {
	o.gate.Close()
	o.srv.BeginShutdown()
}
