package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/url"
	"time"

	"rdfcube/internal/gen"
	"rdfcube/internal/loadgen"
	"rdfcube/internal/qb"
	"rdfcube/internal/rdf"
	"rdfcube/internal/wal"
)

// Workload inputs. Everything is a pure function of the seed: the corpus
// comes from gen.RealWorld / gen.ShardWorlds, request plans from
// loadgen.BuildPlan (one corpus abstraction for bench and load), plus a
// URI-addressed plan builder for the gate, which refuses shard-local
// observation indices.

// refSeconds is the -seconds value at which a run makes the round counts
// below as written; BENCHMARK.json's run_seconds equals it, and on the box
// this was written on that many rounds measure for about that long.
const refSeconds = 25

// sizes fixes every corpus size, every request count and the number of
// rounds of the four workloads. A run is a number of independent rounds of
// the workload's whole lifecycle; -seconds scales that number and nothing
// else, so a round does identical work on both sides of any comparison,
// whatever -seconds is.
type sizes struct {
	batchN   int // realworld observations, batch
	readN    int // realworld observations, read
	ingestN  int // realworld observations at the start of an ingest round
	shardObs int // ShardWorlds ObsPerDataset (two datasets per shard, three shards)

	// Rounds per run at -seconds = refSeconds.
	batchRounds, readRounds, ingestRounds, topoRounds int

	setupReps int           // batch only: set-ups per round, its set-up being milliseconds
	reading   time.Duration // one reading of the host yardstick, taken before every timed stage

	// Requests per round.
	warmup       int // read-only warm-up before a timed phase
	sweep        int // batch: reads against the freshly recovered server
	readOps      int // read: timed requests
	ingestOps    int // ingest: timed requests
	topoOps      int // topology: timed requests through the gate
	drill        int // durable inserts of the restart drill
	replayPrefix int // WAL records replayed by crash recovery
	samples      int // answers sampled by each correctness check
	probeOps     int // requests per single-client layer probe

	fleetProbeOps int     // traced batch, read, ingest: requests through their small probe fleet
	reconcileTol  float64 // how far a traced run's parts may miss the whole
}

// fullSizes is the committed benchmark; tinySizes keeps the tier-1 test
// under 15 s. The corpus sizes are a quarter to a half of ISSUE 11's: a
// round has to fit several times into a run for a median to exist
// (README.md, "Where this departs").
var (
	fullSizes = sizes{
		batchN: 1500, readN: 1500, ingestN: 1000, shardObs: 150,
		batchRounds: 7, readRounds: 6, ingestRounds: 6, topoRounds: 5, setupReps: 5, reading: 20 * time.Millisecond,
		warmup: 500, sweep: 4000, readOps: 7000, ingestOps: 1000, topoOps: 1500,
		drill: 150, replayPrefix: 300, samples: 40, probeOps: 150,
		fleetProbeOps: 800, reconcileTol: 0.10,
	}
	tinySizes = sizes{
		batchN: 160, readN: 160, ingestN: 120, shardObs: 20,
		batchRounds: 25, readRounds: 25, ingestRounds: 25, topoRounds: 25, // one round per -seconds 1
		setupReps: 2, reading: 2 * time.Millisecond,
		warmup: 40, sweep: 400, readOps: 2000, ingestOps: 800, topoOps: 600,
		drill: 30, replayPrefix: 25, samples: 8, probeOps: 30,
		// A handful of sub-millisecond samples cannot hold 10 %.
		fleetProbeOps: 200, reconcileTol: 0.5,
	}
)

// roundSeed derives the seed of a run's r-th round: round 0 uses the run's
// own seed, later rounds corpora and plans of their own, so a run's medians
// stand on several corpora and depend less on the luck of one.
func roundSeed(seed int64, r int) int64 { return seed + int64(r)*1_000_003 }

// planSeed maps the user seed onto loadgen's seed space, where 0 means
// "default to 1" and would alias seeds 0 and 1.
func planSeed(seed int64) int64 {
	if seed == 0 {
		return 0x5eed
	}
	return seed
}

func realWorld(n int, seed int64) *qb.Corpus {
	return gen.RealWorld(gen.RealWorldConfig{TotalObs: n, Seed: seed})
}

// buildPlan expands one loadgen mix over the corpus.
func buildPlan(corpus *qb.Corpus, n int, seed int64, mix string, requests int) (*loadgen.Plan, error) {
	return loadgen.BuildPlan(loadgen.PlanConfig{
		Gen: "realworld", N: n, Seed: planSeed(seed), Mix: mix, Requests: requests,
	}, corpus)
}

// insertOps returns the first m insert ops of an ingest-mix plan built
// over the corpus — the restart drill's write burst.
func insertOps(corpus *qb.Corpus, n int, seed int64, m int) ([]loadgen.Op, error) {
	p, err := buildPlan(corpus, n, seed, "ingest", 2*m+64)
	if err != nil {
		return nil, err
	}
	var ops []loadgen.Op
	for _, op := range p.Ops {
		if op.Kind == loadgen.OpInsert && len(ops) < m {
			ops = append(ops, op)
		}
	}
	if len(ops) < m {
		return nil, fmt.Errorf("benchmark: ingest plan yielded %d inserts, want %d", len(ops), m)
	}
	return ops, nil
}

// topologyMix is the gate workload's traffic shape (percent). The gate has
// no /v1/obs route, so the 5 % the in-process mixes spend there goes to the
// gate's own /v1/stats.
var topologyMix = []struct {
	kind   string
	weight int
}{
	{loadgen.OpRelated, 50}, {loadgen.OpContains, 15}, {loadgen.OpComplements, 10},
	{loadgen.OpStats, 5}, {loadgen.OpInsert, 20},
}

// buildURIPlan is loadgen.BuildPlan's URI-addressed sibling: the same
// zipf-over-observations draw, but reads name the observation by URI.
// uriPrefix keeps insert URIs of different phases apart.
func buildURIPlan(corpus *qb.Corpus, seed int64, requests int, uriPrefix string) *loadgen.Plan {
	type source struct {
		ds *qb.Dataset
		o  *qb.Observation
	}
	var flat []source
	for _, ds := range corpus.Datasets {
		for _, o := range ds.Observations {
			flat = append(flat, source{ds, o})
		}
	}
	rng := rand.New(rand.NewSource(planSeed(seed)))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(flat)-1))
	ops := make([]loadgen.Op, 0, requests)
	inserts := 0
	for i := 0; i < requests; i++ {
		pick := rng.Intn(100)
		kind := topologyMix[len(topologyMix)-1].kind
		for _, w := range topologyMix {
			if pick < w.weight {
				kind = w.kind
				break
			}
			pick -= w.weight
		}
		src := flat[int(zipf.Uint64())]
		switch kind {
		case loadgen.OpStats:
			ops = append(ops, loadgen.Op{Kind: kind, Method: "GET", Path: "/v1/stats"})
		case loadgen.OpInsert:
			dims := map[string]string{}
			for k, d := range src.ds.Schema.Dimensions {
				dims[d.Value] = src.o.DimValues[k].Value
			}
			measures := map[string]string{}
			for _, m := range src.ds.Schema.Measures {
				measures[m.Value] = fmt.Sprintf("%d", rng.Intn(1_000_000))
			}
			body, err := json.Marshal(map[string]any{
				"dataset":    src.ds.URI.Value,
				"uri":        fmt.Sprintf("%s%d", uriPrefix, inserts),
				"dimensions": dims,
				"measures":   measures,
			})
			if err != nil {
				panic(err) // maps of strings always marshal
			}
			inserts++
			ops = append(ops, loadgen.Op{Kind: kind, Method: "POST", Path: "/v1/observations", Body: body})
		default:
			ops = append(ops, loadgen.Op{Kind: kind, Method: "GET",
				Path: "/v1/" + kind + "?obs=" + url.QueryEscape(src.o.URI.Value)})
		}
	}
	return &loadgen.Plan{Ops: ops, Digest: digestOps(ops)}
}

// digestOps hashes method, path and body of every op in order, like
// loadgen's plan digest.
func digestOps(ops []loadgen.Op) string {
	h := fnv.New64a()
	for _, op := range ops {
		_, _ = h.Write([]byte(op.Method + " " + op.Path + "\n"))
		_, _ = h.Write(op.Body)
		_, _ = h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// combineDigests folds several plan digests into one printable digest.
func combineDigests(ds ...string) string {
	h := fnv.New64a()
	for _, d := range ds {
		_, _ = h.Write([]byte(d + "\n"))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// insertBody mirrors the POST /v1/observations wire shape.
type insertBody struct {
	Dataset    string            `json:"dataset"`
	URI        string            `json:"uri"`
	Dimensions map[string]string `json:"dimensions"`
	Measures   map[string]string `json:"measures"`
}

// decodeInsert turns an insert op's body into the observation and WAL
// record the handler would build from it, so the layer probes can replay
// the plan's inserts call-by-call against core.Incremental and wal.Log.
func decodeInsert(corpus *qb.Corpus, body []byte) (*qb.Observation, wal.Record, error) {
	var req insertBody
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, wal.Record{}, err
	}
	for di, ds := range corpus.Datasets {
		if ds.URI.Value != req.Dataset {
			continue
		}
		o := &qb.Observation{
			URI:           rdf.NewIRI(req.URI),
			Dataset:       ds,
			DimValues:     make([]rdf.Term, len(ds.Schema.Dimensions)),
			MeasureValues: make([]rdf.Term, len(ds.Schema.Measures)),
		}
		for key, val := range req.Dimensions {
			k := ds.Schema.DimIndex(rdf.NewIRI(key))
			if k < 0 {
				return nil, wal.Record{}, fmt.Errorf("benchmark: dimension %q not in %s", key, req.Dataset)
			}
			o.DimValues[k] = rdf.NewIRI(val)
		}
		for key, val := range req.Measures {
			k := ds.Schema.MeasureIndex(rdf.NewIRI(key))
			if k < 0 {
				return nil, wal.Record{}, fmt.Errorf("benchmark: measure %q not in %s", key, req.Dataset)
			}
			o.MeasureValues[k] = rdf.NewTypedLiteral(val, rdf.XSDInteger)
		}
		rec := wal.Record{Dataset: di, URI: o.URI, DimValues: o.DimValues, MeasureValues: o.MeasureValues}
		return o, rec, nil
	}
	return nil, wal.Record{}, fmt.Errorf("benchmark: unknown dataset %q", req.Dataset)
}
