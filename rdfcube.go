// Package rdfcube computes containment and complementarity relationships
// between observations of RDF Data Cubes, reproducing Meimaris et al.,
// "Efficient Computation of Containment and Complementarity in RDF Data
// Cubes" (EDBT 2016).
//
// The package is a façade over the implementation packages: build or load
// a Corpus (QB datasets + SKOS code lists), pick an Algorithm, and Compute
// the relationship sets:
//
//	corpus, err := rdfcube.LoadTurtle(ttl)
//	res, err := rdfcube.Compute(corpus, rdfcube.CubeMasking, rdfcube.Options{})
//	for _, p := range res.Result.FullSet { ... }
//	for _, p := range res.Result.PartialSet { deg := res.Space.Degree(p.A, p.B); ... }
//
// A Result is three pair sets; a partial pair's degree is not stored but
// derived from the compiled Space on read.
//
// Three algorithm families are provided, as in the paper: the quadratic
// Baseline, lossy Clustering, and the exact lattice-pruned CubeMasking
// (plus the paper's future-work extensions: hybrid, parallel and
// incremental computation). SPARQL and forward-chaining rule comparators,
// the experiment harness, and the data generators live in internal
// packages driven by the cmd/ tools.
package rdfcube

import (
	"context"
	"fmt"
	"io"
	"sort"

	"rdfcube/internal/align"
	"rdfcube/internal/core"
	"rdfcube/internal/csvqb"
	"rdfcube/internal/gen"
	"rdfcube/internal/hierarchy"
	"rdfcube/internal/integrity"
	"rdfcube/internal/obsv"
	"rdfcube/internal/qb"
	"rdfcube/internal/rdf"
	"rdfcube/internal/serve"
	"rdfcube/internal/snapshot"
	"rdfcube/internal/sparql"
	"rdfcube/internal/turtle"
)

// Re-exported model types. They alias the implementation types, so values
// flow freely between the façade and the internal packages.
type (
	// Term is an RDF term (IRI, blank node or literal).
	Term = rdf.Term
	// Corpus is the full input: datasets plus shared code lists.
	Corpus = qb.Corpus
	// Dataset is one QB dataset (schema + observations).
	Dataset = qb.Dataset
	// Schema is a dataset structure (dimensions, measures).
	Schema = qb.Schema
	// Observation is one multidimensional data point.
	Observation = qb.Observation
	// CodeList is a hierarchical dimension value domain.
	CodeList = hierarchy.CodeList
	// Registry maps dimensions to code lists.
	Registry = hierarchy.Registry
	// Space is a compiled corpus ready for relationship computation.
	Space = core.Space
	// Result holds the computed relationship sets S_F, S_P, S_C; the degree
	// of an S_P pair is Space.Degree.
	Result = core.Result
	// Pair is an ordered observation index pair.
	Pair = core.Pair
	// Options configures Compute.
	Options = core.Options
	// Algorithm selects a computation strategy.
	Algorithm = core.Algorithm
	// Tasks selects which relationship types to compute.
	Tasks = core.Tasks
	// AlignConfig configures code-list alignment (the LIMES substitute).
	AlignConfig = align.Config
	// AlignLink is one discovered code correspondence.
	AlignLink = align.Link

	// Recorder observes a computation: phase spans, monotonic counters and
	// gauges. Attach one via Options.Obs; a nil Recorder costs nothing.
	Recorder = obsv.Recorder
	// Collector is an in-memory Recorder: thread-safe counters plus a span
	// tree, with text/JSON/Prometheus-style exposition.
	Collector = obsv.Collector
	// Progress is a streaming Recorder that prints phase transitions and
	// throttled counter digests to a writer (typically stderr).
	Progress = obsv.Progress
)

// Algorithm and task constants.
const (
	// Baseline is the paper's §3.1 quadratic algorithm.
	Baseline = core.AlgorithmBaseline
	// Clustering is the paper's §3.2 lossy algorithm.
	Clustering = core.AlgorithmClustering
	// CubeMasking is the paper's §3.3 exact lattice-pruned algorithm.
	CubeMasking = core.AlgorithmCubeMasking
	// CubeMaskingPrefetch adds the Fig. 5(g) children cache.
	CubeMaskingPrefetch = core.AlgorithmCubeMaskingPrefetch
	// Hybrid clusters inside oversized lattice cubes (§6 future work).
	Hybrid = core.AlgorithmHybrid
	// Parallel is CubeMasking on a worker pool (§6 future work):
	// Options.Workers == 0 means GOMAXPROCS instead of serial.
	Parallel = core.AlgorithmParallel

	// TaskFull computes full containment only.
	TaskFull = core.TaskFull
	// TaskPartial computes partial containment only.
	TaskPartial = core.TaskPartial
	// TaskCompl computes complementarity only.
	TaskCompl = core.TaskCompl
	// TaskAll computes all three relationship sets.
	TaskAll = core.TaskAll
)

// Constructors re-exported from the model packages.
var (
	// NewIRI builds an IRI term.
	NewIRI = rdf.NewIRI
	// NewInteger builds an xsd:integer literal.
	NewInteger = rdf.NewInteger
	// NewSchema builds a dataset schema from dimension and measure IRIs.
	NewSchema = qb.NewSchema
	// NewCorpus builds an empty corpus over a code-list registry.
	NewCorpus = qb.NewCorpus
	// NewCodeList builds a hierarchical code list for one dimension.
	NewCodeList = hierarchy.New
	// NewRegistry builds an empty code-list registry.
	NewRegistry = hierarchy.NewRegistry
	// AlignCodes matches code terms across sources (LIMES substitute).
	AlignCodes = align.Match

	// NewCollector builds an empty in-memory metrics collector.
	NewCollector = obsv.NewCollector
	// NewProgress builds a streaming progress recorder over a writer.
	NewProgress = obsv.NewProgress
	// MultiRecorder fans one recording out to several recorders (nils are
	// skipped, so optional recorders compose freely).
	MultiRecorder = obsv.Multi
	// StartDebugServer serves a collector's live /metrics, /metrics.json,
	// /debug/vars and /debug/pprof/ endpoints on the given address.
	StartDebugServer = obsv.StartDebugServer
)

// Computation is a computed result with its compiled space, so pair
// indices can be resolved back to observations and partial pairs to their
// degrees (Space.Degree).
type Computation struct {
	// Space is the compiled corpus.
	Space *Space
	// Result holds the sorted relationship sets.
	Result *Result
}

// Obs returns the observation behind index i of any Result pair.
func (c *Computation) Obs(i int) *Observation { return c.Space.Obs[i] }

// Compute compiles the corpus and runs the selected algorithm over it. It
// cannot be canceled; use ComputeContext to stop a run.
func Compute(corpus *Corpus, alg Algorithm, opts Options) (*Computation, error) {
	return ComputeContext(context.Background(), corpus, alg, opts)
}

// ComputeContext is Compute with cooperative cancellation: the run stops
// shortly after ctx is canceled or its deadline passes (wrap ctx in
// context.WithTimeout for one) and returns an error matching
// errors.Is(err, ErrCanceled). On cancellation the returned Computation is
// NOT nil: it carries the sorted partial result — a subset of the full
// run's sets — so callers can report what was salvaged.
func ComputeContext(ctx context.Context, corpus *Corpus, alg Algorithm, opts Options) (*Computation, error) {
	s, res, err := core.ComputeCorpusCtx(ctx, corpus, alg, opts)
	if s == nil {
		return nil, err
	}
	return &Computation{Space: s, Result: res}, err
}

// LoadTurtle parses a Turtle document containing QB datasets and SKOS code
// lists into a corpus.
func LoadTurtle(src string) (*Corpus, error) {
	g, err := turtle.Parse(src, nil)
	if err != nil {
		return nil, err
	}
	return qb.ParseGraph(g)
}

// ExportTurtle serializes the corpus (datasets, observations, code lists)
// as Turtle with the standard prefixes.
func ExportTurtle(corpus *Corpus) string {
	return turtle.Write(qb.ExportGraph(corpus), StandardPrefixes())
}

// StandardPrefixes returns the prefix map used by the exporters.
func StandardPrefixes() map[string]string {
	return map[string]string{
		"qb":   qb.NS,
		"qbr":  qb.QBRNS,
		"skos": "http://www.w3.org/2004/02/skos/core#",
		"rdf":  "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
		"xsd":  "http://www.w3.org/2001/XMLSchema#",
		"ex":   gen.ExNS,
	}
}

// ExportRelationships serializes computed relationships as RDF using the
// qbr: vocabulary (the authors' QB extension): qbr:contains,
// qbr:partiallyContains (with qbr:containmentDegree on a pair node) and
// qbr:complements.
//
// The output is deterministic regardless of the order the algorithm (or
// incremental maintenance) emitted the pairs in: the sets are sorted
// locally before serialization, so the pcN blank-node labels — the one
// piece of output the triple sorter cannot normalize — always follow the
// canonical (A,B) pair order.
func ExportRelationships(c *Computation) string {
	g := rdf.NewGraph()
	contains := rdf.NewIRI(qb.ContainsProp)
	partial := rdf.NewIRI(qb.PartiallyContainsProp)
	compl := rdf.NewIRI(qb.ComplementsProp)
	degree := rdf.NewIRI(qb.ContainmentDegreeProp)
	for _, p := range sortedPairs(c.Result.FullSet) {
		g.Add(c.Obs(p.A).URI, contains, c.Obs(p.B).URI)
	}
	for i, p := range sortedPairs(c.Result.PartialSet) {
		g.Add(c.Obs(p.A).URI, partial, c.Obs(p.B).URI)
		node := rdf.NewBlank(fmt.Sprintf("pc%d", i))
		g.Add(node, rdf.NewIRI(qb.QBRNS+"source"), c.Obs(p.A).URI)
		g.Add(node, rdf.NewIRI(qb.QBRNS+"target"), c.Obs(p.B).URI)
		g.Add(node, degree, rdf.NewDecimal(c.Space.Degree(p.A, p.B)))
	}
	for _, p := range sortedPairs(c.Result.ComplSet) {
		g.Add(c.Obs(p.A).URI, compl, c.Obs(p.B).URI)
		g.Add(c.Obs(p.B).URI, compl, c.Obs(p.A).URI)
	}
	return turtle.Write(g, StandardPrefixes())
}

// sortedPairs returns a sorted copy of one relationship set, leaving the
// caller's slice untouched.
func sortedPairs(set []Pair) []Pair {
	out := append([]Pair(nil), set...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// CSVOptions configure CSV-to-QB conversion.
type CSVOptions = csvqb.Options

// LoadCSV converts a CSV statistical table (header row first) into a
// corpus over the given code-list registry — the ingestion path the paper
// describes for its non-RDF sources.
func LoadCSV(r io.Reader, reg *Registry, opts CSVOptions) (*Corpus, error) {
	return csvqb.Convert(r, reg, opts)
}

// LoadHierarchiesTurtle parses SKOS code lists (qb:codeList +
// skos:hasTopConcept/broader) from Turtle into a registry.
func LoadHierarchiesTurtle(src string) (*Registry, error) {
	g, err := turtle.Parse(src, nil)
	if err != nil {
		return nil, err
	}
	return hierarchy.FromGraph(g)
}

// IntegrityViolation is one QB well-formedness violation.
type IntegrityViolation = integrity.Violation

// CheckIntegrity validates the corpus against the implemented W3C QB
// integrity constraints (IC-1, IC-2, IC-3, IC-11, IC-12, IC-14, IC-19 and
// the uniqueness variants) and returns the violations found.
func CheckIntegrity(corpus *Corpus) ([]IntegrityViolation, error) {
	return integrity.Check(qb.ExportGraph(corpus))
}

// ExplorationIndex is a materialized relationship store for online
// exploration (roll-up / drill-down navigation, complement lookup).
type ExplorationIndex = core.Index

// BuildExplorationIndex computes all relationships with cubeMasking and
// materializes the per-observation neighbour lists.
func BuildExplorationIndex(corpus *Corpus) (*ExplorationIndex, error) {
	s, err := core.NewSpace(corpus)
	if err != nil {
		return nil, err
	}
	return core.BuildIndex(s, core.AlgorithmCubeMasking, core.Options{})
}

// QBRVocabularyTurtle returns the qbr: relationship vocabulary definition
// as Turtle.
func QBRVocabularyTurtle() string {
	prefixes := StandardPrefixes()
	prefixes["owl"] = "http://www.w3.org/2002/07/owl#"
	prefixes["rdfs"] = "http://www.w3.org/2000/01/rdf-schema#"
	return turtle.Write(qb.QBRVocabulary(), prefixes)
}

// Query runs a SPARQL query (the engine's SELECT/ASK subset) against the
// corpus's QB export.
func Query(corpus *Corpus, query string) (*sparql.Results, error) {
	return sparql.Exec(qb.ExportGraph(corpus), query)
}

// Skyline returns the indices of observations not fully contained by any
// other observation (§1's skyline application).
func Skyline(s *Space) []int { return core.Skyline(s) }

// KDominantSkyline returns observations not k-dominated by any other.
func KDominantSkyline(s *Space, k int) []int { return core.KDominantSkyline(s, k) }

// MergedRow is one combined data point built from complementary
// observations (the paper's Figure 3 table rows).
type MergedRow = core.MergedRow

// MergeComplements joins a computation's complementary observations into
// combined rows carrying the union of their measures.
func MergeComplements(c *Computation) []MergedRow {
	return core.MergeComplements(c.Space, c.Result)
}

// Aggregation selects how measures combine under RollUp.
type Aggregation = core.Aggregation

// Roll-up aggregations.
const (
	// AggSum adds measure values.
	AggSum = core.AggSum
	// AggAvg averages measure values.
	AggAvg = core.AggAvg
	// AggCount counts aggregated observations.
	AggCount = core.AggCount
)

// RollUp aggregates one dataset of the compiled space up to the target
// hierarchy level on a dimension (OLAP roll-up), returning the aggregated
// dataset.
func RollUp(s *Space, dsIndex int, dim Term, level int, agg Aggregation) (*Dataset, error) {
	return core.RollUp(s, dsIndex, dim, level, agg)
}

// NewIncremental begins incremental relationship maintenance over a
// compiled space (§6 future work).
func NewIncremental(s *Space, tasks Tasks) *core.Incremental {
	return core.NewIncremental(s, tasks)
}

// Snapshot is a persistable computation state: compiled space, computed
// relationship sets and (optionally) the cubeMasking lattice, with a
// versioned CRC-checked binary encoding (see internal/snapshot).
type Snapshot = snapshot.Snapshot

// Server answers relationship queries over a snapshot's state via
// HTTP/JSON and accepts live inserts (see internal/serve for the
// endpoint list).
type Server = serve.Server

// ServerConfig tunes a Server (tasks, recorder, timeout, concurrency
// limit, write-ahead log). The zero value is serviceable.
type ServerConfig = serve.Config

// ErrCanceled matches, via errors.Is, every cooperatively aborted run: a
// canceled context or an expired deadline.
var ErrCanceled = core.ErrCanceled

var (
	// NewServer builds a query/insert server over a snapshot's state.
	// The snapshot is adopted, not copied.
	NewServer = serve.New
	// StartServer listens on an address (port 0 for ephemeral) and
	// serves a Server until the returned http.Server is shut down.
	StartServer = serve.Start
)

// NewSnapshot captures a computation as a persistable snapshot. The
// lattice is derived from the space: it is never written, and Read
// rebuilds it.
func NewSnapshot(c *Computation) *Snapshot {
	return snapshot.New(c.Space, c.Result, nil)
}

// Compile compiles a corpus without computing relationships (for Skyline,
// incremental use, or repeated Compute runs).
func Compile(corpus *Corpus) (*Space, error) { return core.NewSpace(corpus) }

// ExampleCorpus returns the paper's Figure 2 running example (three
// datasets, ten observations) — a ready-made playground.
func ExampleCorpus() *Corpus { return gen.PaperExample() }

// GenerateRealWorld returns a corpus replicating the paper's Table 4
// datasets at the given total observation count.
func GenerateRealWorld(totalObs int, seed int64) *Corpus {
	return gen.RealWorld(gen.RealWorldConfig{TotalObs: totalObs, Seed: seed})
}

// GenerateSynthetic returns the §4.2 synthetic scalability corpus.
func GenerateSynthetic(n int, seed int64) *Corpus {
	return gen.Synthetic(gen.SyntheticConfig{N: n, Seed: seed})
}
