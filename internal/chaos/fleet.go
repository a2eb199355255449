package chaos

import (
	"fmt"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"rdfcube/internal/gate"
	"rdfcube/internal/gen"
	"rdfcube/internal/netchaos"
	"rdfcube/internal/obsv"
	"rdfcube/internal/qb"
)

// fleetSpec is the shape of a sharded world; each gate script fixes one.
type fleetSpec struct {
	// obsPerDataset sizes the shard corpora.
	obsPerDataset int
	// disjointMeasures gives every dataset its own measure, so a single
	// dataset can be split off a shard without breaking closure.
	disjointMeasures bool
	// replicas gives every shard a second proxy the gate uses as its hedge
	// target. Both proxies reach the same node — in sync by construction,
	// which keeps replication lag out of a routing soak.
	replicas bool
	// spare makes the fleet one that can rebalance: an empty fourth shard
	// (every schema stubbed, zero observations) to migrate into, and a
	// gate with a migration state directory and fast migration pacing.
	spare bool
	// faults is the low-grade background schedule of every proxy (Seed is
	// set per proxy).
	faults netchaos.Config
}

// shard is one fleet member: the node, and the proxies the gate reaches
// it through (replica is nil without fleetSpec.replicas). node.url() is
// the direct, proxy-free address a script uses to see what landed where.
type shard struct {
	name             string
	node             *node
	primary, replica *netchaos.Proxy
}

// partition blackholes (or heals) every path the gate has to the shard.
func (s *shard) partition(on bool) {
	s.primary.Partition(on)
	if s.replica != nil {
		s.replica.Partition(on)
	}
}

// fleet is three relationship-closed shards (gen.ShardWorlds) behind
// netchaos proxies, a gate routing through the proxies, and the oracle:
// the combined corpus on one node behind a 1-shard gate with no proxies
// and no probing — ground truth through the exact same merge and render
// path.
type fleet struct {
	spec     fleetSpec
	worlds   []*gen.ShardWorld
	shards   []*shard // the worlds' shards in order, then the spare
	cfgs     []gate.ShardConfig
	stateDir string

	g      *gate.Gate
	gateTS *httptest.Server

	oracleTS *httptest.Server
}

// buildFleet adds a fleet to the world and points its traffic at the gate.
func (w *World) buildFleet(spec fleetSpec) *fleet {
	w.t.Helper()
	f := &fleet{spec: spec}
	w.fleet = f
	var combined *qb.Corpus
	f.worlds, combined = gen.ShardWorlds(gen.ShardWorldsConfig{
		Seed:             int64(w.opt.seed()),
		ObsPerDataset:    spec.obsPerDataset,
		DisjointMeasures: spec.disjointMeasures,
	})
	w.learn(combined)

	var all []string
	for _, sw := range f.worlds {
		f.addShard(w, sw.Name, sw.Corpus, sw.Datasets)
		all = append(all, sw.Datasets...)
	}
	if spec.spare {
		// The stubs pin the full dimension universe — partial degrees on
		// the spare normalize by the same |P| as everywhere else, which is
		// what keeps the gate's answers byte-equal to the oracle's after
		// the cutover.
		stub := qb.NewCorpus(combined.Hierarchies)
		for _, ds := range combined.Datasets {
			stub.AddDataset(&qb.Dataset{URI: ds.URI, Schema: ds.Schema})
		}
		f.addShard(w, "spare", stub, nil)
		dir, err := os.MkdirTemp("", "chaos-migrations-")
		w.must(err, "migration state dir")
		f.stateDir = dir
		w.onClose(func() { _ = os.RemoveAll(dir) }) // a leftover temp dir fails nothing
	}

	oracle := w.node("oracle", combined)
	og, err := gate.New(gate.Config{
		Shards:        []gate.ShardConfig{{Name: "all", Primary: oracle.url(), Datasets: all}},
		ProbeInterval: -1,
	})
	w.must(err, "oracle gate")
	f.oracleTS = httptest.NewServer(og.Handler())
	w.onClose(func() {
		f.oracleTS.Close()
		og.Close()
	})

	w.onClose(f.stopGate)
	w.must(f.startGate(w, gate.ShardMap{Epoch: 1, Shards: f.cfgs}), "gate")
	return f
}

// addShard boots one shard node and its proxies. The seed offsets keep
// every proxy's schedule independent and the whole run reproducible.
func (f *fleet) addShard(w *World, name string, c *qb.Corpus, datasets []string) {
	w.t.Helper()
	s := &shard{name: name, node: w.node(name, c)}
	faults := f.spec.faults
	faults.Seed = w.opt.seed()*1000 + uint64(len(f.shards))*2
	proxy := func() *netchaos.Proxy {
		p, err := netchaos.New(strings.TrimPrefix(s.node.url(), "http://"), faults)
		w.must(err, "proxying shard "+name)
		w.onClose(func() { p.Close() })
		faults.Seed++
		return p
	}
	s.primary = proxy()
	cfg := gate.ShardConfig{Name: name, Primary: "http://" + s.primary.Addr(), Datasets: datasets}
	if f.spec.replicas {
		s.replica = proxy()
		cfg.Replica = "http://" + s.replica.Addr()
	}
	f.shards = append(f.shards, s)
	f.cfgs = append(f.cfgs, cfg)
}

func (f *fleet) shard(name string) *shard {
	for _, s := range f.shards {
		if s.name == name {
			return s
		}
	}
	panic(fmt.Sprintf("chaos: no shard %q in the fleet", name))
}

// startGate boots a gate over m and points the world's traffic at it.
// Tight budgets: a dead shard must cost milliseconds, not the 5s default.
// A successor after a power cut shares the state directory and starts
// from the map the fallen gate last installed, exactly as cubegate's
// rewritten map file would have it.
func (f *fleet) startGate(w *World, m gate.ShardMap) error {
	cfg := gate.Config{
		Shards:           m.Shards,
		Epoch:            m.Epoch,
		Recorder:         obsv.NewCollector(),
		RequestTimeout:   3 * time.Second,
		ShardTimeout:     300 * time.Millisecond,
		ProbeInterval:    100 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerBackoff:   200 * time.Millisecond,
		HedgeMin:         20 * time.Millisecond,
		HedgeMax:         60 * time.Millisecond,
		WriteRetries:     2,
		WriteRetryBase:   20 * time.Millisecond,
		MaxRetryWait:     100 * time.Millisecond,
		Logf:             w.opt.Logf,
	}
	if f.spec.spare {
		cfg.MigrationStateDir = f.stateDir
		cfg.Migrator = gate.MigratorOptions{
			Interval:     10 * time.Millisecond,
			DrainWindow:  100 * time.Millisecond,
			PhaseTimeout: 30 * time.Second,
		}
	}
	g, err := gate.New(cfg)
	if err != nil {
		return err
	}
	f.g, f.gateTS = g, httptest.NewServer(g.Handler())
	w.base.Store(f.gateTS.URL)
	return nil
}

// stopGate kills the gate mid-flight (a no-op when none runs). Close
// cancels a migration goroutine wherever it happens to be; its state file
// holds whatever the last phase transition persisted — the crash contract
// a successor resumes from.
func (f *fleet) stopGate() {
	if f.g != nil {
		f.gateTS.Close()
		f.g.Close()
		f.g, f.gateTS = nil, nil
	}
}
