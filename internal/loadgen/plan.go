// Package loadgen is the deterministic corpus-driven traffic generator
// behind cmd/cubeload: it expands a seeded workload description into a
// concrete request sequence (the plan), drives a serve.Server with it —
// in-process through its http.Handler or over the network — and reports
// goodput, shed rate and latency quantiles in a LoadReport.
//
// Determinism is the load generator's core property: the same
// PlanConfig always expands to byte-identical requests in the same
// order (the plan digest proves it; TestPlanDeterministic pins one digest
// across commits), so two runs of one plan — the two sides of a benchmark
// comparison, which builds its traffic with BuildPlan — differ in the
// server, not in the workload.
package loadgen

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

	"rdfcube/internal/qb"
)

// Op kinds — also the per-operation keys of a LoadReport.
const (
	OpRelated     = "related"
	OpContains    = "contains"
	OpComplements = "complements"
	OpObs         = "obs"
	OpStats       = "stats"
	OpInsert      = "insert"
)

// Op is one concrete request of the plan.
type Op struct {
	Kind   string
	Method string
	Path   string
	Body   []byte // nil for GETs
}

// PlanConfig describes a workload. It is embedded verbatim in the
// LoadReport, so a report names the plan it ran.
type PlanConfig struct {
	// Gen selects the corpus generator: "realworld" (Table-4 replica) or
	// "paper" (the worked example).
	Gen string `json:"gen"`
	// N is the realworld corpus observation count (ignored for paper).
	N int `json:"n"`
	// Seed drives corpus generation AND request sequencing.
	Seed int64 `json:"seed"`
	// Mix names the traffic mix: explorer, ingest or mixed.
	Mix string `json:"mix"`
	// Requests is the plan length.
	Requests int `json:"requests"`
	// ZipfS is the skew of the observation-popularity distribution
	// (> 1; zero means 1.1). Hot observations get most of the reads, the
	// long tail keeps cache-hostile variety.
	ZipfS float64 `json:"zipfS,omitempty"`
}

func (c PlanConfig) withDefaults() PlanConfig {
	if c.Gen == "" {
		c.Gen = "realworld"
	}
	if c.N == 0 {
		c.N = 2000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Mix == "" {
		c.Mix = "mixed"
	}
	if c.Requests == 0 {
		c.Requests = 4000
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.1
	}
	return c
}

// Plan is an expanded request sequence.
type Plan struct {
	Config PlanConfig
	Ops    []Op
	// Digest is the FNV-1a hash of the full request sequence; two plans
	// with equal digests issue byte-identical traffic.
	Digest string
}

// weightedOp pairs an op kind with its share of the mix.
type weightedOp struct {
	kind   string
	weight int
}

// mixes defines the three traffic shapes. Weights are percentages.
//
//	explorer  read-heavy browsing: fan-out queries dominate
//	ingest    insert-heavy ingestion with verification reads
//	mixed     the balanced default: reads of every kind beside inserts
var mixes = map[string][]weightedOp{
	"explorer": {
		{OpRelated, 45}, {OpContains, 25}, {OpComplements, 15}, {OpObs, 10}, {OpStats, 5},
	},
	"ingest": {
		{OpInsert, 60}, {OpRelated, 15}, {OpContains, 10}, {OpObs, 10}, {OpStats, 5},
	},
	"mixed": {
		{OpRelated, 35}, {OpContains, 20}, {OpComplements, 10}, {OpObs, 10}, {OpInsert, 20}, {OpStats, 5},
	},
}

// Mixes lists the known mix names (for usage messages).
func Mixes() []string {
	names := make([]string, 0, len(mixes))
	for name := range mixes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// obsSource locates one corpus observation for insert templating.
type obsSource struct {
	ds *qb.Dataset
	o  *qb.Observation
}

// BuildPlan expands the config into the concrete request sequence
// against the given corpus. The same config and corpus always produce
// the same plan (one rand.Rand seeded from Seed drives every choice, in
// a fixed order per request).
func BuildPlan(cfg PlanConfig, corpus *qb.Corpus) (*Plan, error) {
	cfg = cfg.withDefaults()
	mix, ok := mixes[cfg.Mix]
	if !ok {
		return nil, fmt.Errorf("loadgen: unknown mix %q (have %v)", cfg.Mix, Mixes())
	}
	total := 0
	for _, w := range mix {
		total += w.weight
	}

	// Flatten the corpus in space order (datasets in corpus order,
	// observations in dataset order) so a plan index equals the serving
	// index.
	var flat []obsSource
	for _, ds := range corpus.Datasets {
		for _, o := range ds.Observations {
			flat = append(flat, obsSource{ds, o})
		}
	}
	n := len(flat)
	if n == 0 {
		return nil, fmt.Errorf("loadgen: empty corpus")
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	zipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(n-1))

	ops := make([]Op, 0, cfg.Requests)
	inserts := 0
	for i := 0; i < cfg.Requests; i++ {
		// Draw the op kind and the target observation in a fixed order so
		// the sequence is reproducible.
		pick := rng.Intn(total)
		kind := mix[len(mix)-1].kind
		for _, w := range mix {
			if pick < w.weight {
				kind = w.kind
				break
			}
			pick -= w.weight
		}
		idx := int(zipf.Uint64())

		var op Op
		switch kind {
		case OpRelated, OpContains, OpComplements:
			op = Op{Kind: kind, Method: "GET", Path: fmt.Sprintf("/v1/%s?obs=%d", kind, idx)}
		case OpObs:
			op = Op{Kind: kind, Method: "GET", Path: fmt.Sprintf("/v1/obs/%d", idx)}
		case OpStats:
			op = Op{Kind: kind, Method: "GET", Path: "/v1/stats"}
		case OpInsert:
			// Template the insert on an existing observation: same dataset,
			// same dimension values, fresh URI and measure. The new
			// observation lands in an occupied region of the cube (realistic
			// incremental work) without exploding the relationship sets the
			// way an all-roots observation would.
			src := flat[idx]
			body, err := insertBody(src, inserts, rng)
			if err != nil {
				return nil, err
			}
			inserts++
			op = Op{Kind: kind, Method: "POST", Path: "/v1/observations", Body: body}
		default:
			return nil, fmt.Errorf("loadgen: unknown op kind %q", kind)
		}
		ops = append(ops, op)
	}

	p := &Plan{Config: cfg, Ops: ops}
	p.Digest = digest(ops)
	return p, nil
}

// insertBody builds a valid POST /v1/observations body copying the
// source observation's dimension values under a fresh URI.
func insertBody(src obsSource, seq int, rng *rand.Rand) ([]byte, error) {
	dims := make(map[string]string, len(src.ds.Schema.Dimensions))
	for k, d := range src.ds.Schema.Dimensions {
		dims[d.Value] = src.o.DimValues[k].Value
	}
	measures := make(map[string]string, len(src.ds.Schema.Measures))
	for _, m := range src.ds.Schema.Measures {
		measures[m.Value] = fmt.Sprintf("%d", rng.Intn(1_000_000))
	}
	return json.Marshal(map[string]any{
		"dataset":    src.ds.URI.Value,
		"uri":        fmt.Sprintf("http://example.org/load/obs/%d", seq),
		"dimensions": dims,
		"measures":   measures,
	})
}

// digest hashes the request sequence: method, path and body of every op
// in order.
func digest(ops []Op) string {
	h := fnv.New64a()
	for _, op := range ops {
		_, _ = h.Write([]byte(op.Method))
		_, _ = h.Write([]byte{' '})
		_, _ = h.Write([]byte(op.Path))
		_, _ = h.Write([]byte{'\n'})
		_, _ = h.Write(op.Body)
		_, _ = h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
