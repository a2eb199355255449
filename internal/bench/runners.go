package bench

import (
	"context"
	"time"

	"rdfcube/internal/core"
	"rdfcube/internal/obsv"
	"rdfcube/internal/qb"
	"rdfcube/internal/rdf"
	"rdfcube/internal/rules"
	"rdfcube/internal/sparql"
)

// Approach names used across figures (matching the paper's legends).
const (
	ApproachBaseline    = "baseline"
	ApproachClustering  = "clustering"
	ApproachCubeMasking = "cubeMasking"
	ApproachPrefetch    = "cubeMasking+prefetch"
	ApproachSPARQL      = "SPARQL"
	ApproachRules       = "rules"
	ApproachHybrid      = "hybrid"
	ApproachParallel    = "parallel"
)

// approachName maps a core algorithm to its figure-legend label.
func approachName(alg core.Algorithm) string {
	switch alg {
	case core.AlgorithmBaseline:
		return ApproachBaseline
	case core.AlgorithmClustering:
		return ApproachClustering
	case core.AlgorithmCubeMasking:
		return ApproachCubeMasking
	case core.AlgorithmCubeMaskingPrefetch:
		return ApproachPrefetch
	case core.AlgorithmHybrid:
		return ApproachHybrid
	case core.AlgorithmParallel:
		return ApproachParallel
	default:
		return string(alg)
	}
}

// taskFor maps a relationship to the core task mask.
func taskFor(rel rules.Relationship) core.Tasks {
	switch rel {
	case rules.FullContainment:
		return core.TaskFull
	case rules.PartialContainment:
		return core.TaskPartial
	default:
		return core.TaskCompl
	}
}

// RunCoreCtx times one core algorithm computing one relationship over the
// space, counting (not materializing) the result pairs. A canceled ctx
// aborts the run at the kernel's next guard poll and returns the
// *CanceledError, so a ^C during a long sweep does not have to ride out a
// Θ(n²) scan. A nil ctx behaves like context.Background().
func RunCoreCtx(ctx context.Context, s *core.Space, alg core.Algorithm, rel rules.Relationship, opts core.Options) (Measurement, error) {
	opts.Tasks = taskFor(rel)
	col := obsv.NewCollector()
	opts.Obs = obsv.Multi(opts.Obs, col)
	cnt := &core.Counter{}
	start := time.Now()
	err := core.ComputeCtx(ctx, s, alg, opts, cnt)
	d := time.Since(start)
	s.SetRecorder(nil) // spaces are cached across runs: detach the per-run recorder
	if err != nil {
		return Measurement{}, err
	}
	return Measurement{
		Approach: approachName(alg), Size: s.N(), N: s.N(), Duration: d,
		Full: cnt.NFull, Partial: cnt.NPartial, Compl: cnt.NCompl,
		Counters: col.Snapshot(),
	}, nil
}

// sparqlQueryFor maps a relationship to the §4 comparator query.
func sparqlQueryFor(rel rules.Relationship) string {
	switch rel {
	case rules.FullContainment:
		return sparql.FullContainmentQuery
	case rules.PartialContainment:
		return sparql.PartialContainmentQuery
	default:
		return sparql.ComplementarityQuery
	}
}

// RunSPARQL times the SPARQL comparator for one relationship over the
// exported corpus graph, aborting at the timeout.
func RunSPARQL(g *rdf.Graph, size int, rel rules.Relationship, timeout time.Duration) Measurement {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	start := time.Now()
	res, err := sparql.ExecContext(ctx, g, sparqlQueryFor(rel))
	d := time.Since(start)
	m := Measurement{Approach: ApproachSPARQL, Size: size, Duration: d}
	if err != nil {
		m.TimedOut = true
		return m
	}
	switch rel {
	case rules.FullContainment:
		m.Full = res.Len()
	case rules.PartialContainment:
		m.Partial = res.Len()
	default:
		m.Compl = res.Len()
	}
	return m
}

// RunRules times the rule-based comparator for one relationship. The rule
// engine mutates its graph, so the caller passes a factory that re-exports
// a fresh graph per run.
func RunRules(freshGraph func() *rdf.Graph, size int, rel rules.Relationship, timeout time.Duration) Measurement {
	g := freshGraph()
	prog := rules.PaperProgramFor(rel)
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	eng := rules.NewEngine(g)
	start := time.Now()
	_, err := eng.RunContext(ctx, prog)
	d := time.Since(start)
	m := Measurement{Approach: ApproachRules, Size: size, Duration: d}
	if err != nil {
		m.TimedOut = true
		return m
	}
	var prop string
	switch rel {
	case rules.FullContainment:
		prop = qb.ContainsProp
	case rules.PartialContainment:
		prop = qb.PartiallyContainsProp
	default:
		prop = qb.ComplementsProp
	}
	n := g.Count(rdf.Term{}, rdf.NewIRI(prop), rdf.Term{})
	switch rel {
	case rules.FullContainment:
		m.Full = n
	case rules.PartialContainment:
		m.Partial = n
	default:
		m.Compl = n
	}
	return m
}
