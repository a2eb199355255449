package bench

import (
	"context"
	"fmt"
	"time"

	"rdfcube/internal/cluster"
	"rdfcube/internal/core"
	"rdfcube/internal/gen"
	"rdfcube/internal/obsv"
	"rdfcube/internal/qb"
	"rdfcube/internal/rdf"
	"rdfcube/internal/rules"
)

// Config scales the experiment suite. The defaults regenerate every figure
// in minutes on a laptop; raising Sizes/SyntheticSizes toward the paper's
// 250 k real / 2.5 M synthetic observations reproduces the published scale.
type Config struct {
	// Sizes are the real-world-replica input sizes for Fig. 5(a–c, f, g).
	Sizes []int
	// SyntheticSizes are the §4.2 workload sizes for Fig. 5(e).
	SyntheticSizes []int
	// Seed drives data generation and clustering.
	Seed int64
	// Timeout bounds each SPARQL / rules comparator run (the paper's
	// time-out behaviour). Default 30 s.
	Timeout time.Duration
	// ComparatorCap is the largest size at which the comparators are even
	// attempted; beyond it SPARQL rows are marked timed-out without
	// running. Default 4000.
	ComparatorCap int
	// RulesOOMCap is the size beyond which the rule engine's Θ(n²)
	// derived-triple set exceeds a commodity memory budget; such rows are
	// marked o/m, as in the paper's plots. Default 4000.
	RulesOOMCap int
	// BaselineCap is the largest synthetic size the quadratic baseline is
	// measured at in Fig. 5(e); larger points are projected from the
	// quadratic fit (the paper projects its 2.5 M point the same way).
	// Default 50000.
	BaselineCap int
	// Workers is the pool size of the parallel extension; zero means
	// GOMAXPROCS.
	Workers int
	// Obs, when non-nil, observes every core algorithm run of the suite
	// (progress streaming, aggregate counters). Each RunCoreCtx additionally
	// attaches its own per-run collector, so Measurement.Counters is
	// populated regardless.
	Obs obsv.Recorder
	// Ctx, when non-nil, cancels the rest of the suite cooperatively:
	// every core run starts under it, and once it is canceled the figure
	// aborts at the next guard poll with an error satisfying
	// errors.Is(err, core.ErrCanceled). Nil means uncancellable (as
	// before).
	Ctx context.Context
}

// DefaultConfig returns the laptop-scale configuration.
func DefaultConfig() Config {
	return Config{
		Sizes:          []int{2000, 4000, 8000, 16000},
		SyntheticSizes: []int{10000, 25000, 50000, 100000},
		Seed:           1,
		Timeout:        30 * time.Second,
		ComparatorCap:  4000,
		RulesOOMCap:    4000,
		BaselineCap:    50000,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if len(c.Sizes) == 0 {
		c.Sizes = d.Sizes
	}
	if len(c.SyntheticSizes) == 0 {
		c.SyntheticSizes = d.SyntheticSizes
	}
	if c.Timeout == 0 {
		c.Timeout = d.Timeout
	}
	if c.ComparatorCap == 0 {
		c.ComparatorCap = d.ComparatorCap
	}
	if c.RulesOOMCap == 0 {
		c.RulesOOMCap = d.RulesOOMCap
	}
	if c.BaselineCap == 0 {
		c.BaselineCap = d.BaselineCap
	}
	return c
}

// realSpace generates (and compiles) the Table-4 replica at one size.
func realSpace(size int, seed int64) (*core.Space, *qb.Corpus, error) {
	c := gen.RealWorld(gen.RealWorldConfig{TotalObs: size, Seed: seed})
	s, err := core.NewSpace(c)
	return s, c, err
}

// Fig5 runs the timing comparison of Fig. 5(a–c) for one relationship:
// execution time of the three algorithms plus the SPARQL- and rule-based
// comparators, per input size.
func Fig5(fig string, rel rules.Relationship, cfg Config) (Series, error) {
	cfg = cfg.withDefaults()
	var out Series
	for _, size := range cfg.Sizes {
		s, corpus, err := realSpace(size, cfg.Seed)
		if err != nil {
			return nil, err
		}
		for _, alg := range []core.Algorithm{core.AlgorithmBaseline, core.AlgorithmClustering, core.AlgorithmCubeMasking} {
			opts := core.Options{Obs: cfg.Obs}
			opts.Clustering.Config.Seed = cfg.Seed
			m, err := RunCoreCtx(cfg.Ctx, s, alg, rel, opts)
			if err != nil {
				return nil, err
			}
			m.Figure = fig
			m.Size = size
			out = append(out, m)
		}
		if size <= cfg.ComparatorCap {
			g := qb.ExportGraph(corpus)
			m := RunSPARQL(g, size, rel, cfg.Timeout)
			m.Figure = fig
			out = append(out, m)
		} else {
			out = append(out, Measurement{Figure: fig, Approach: ApproachSPARQL, Size: size,
				Duration: cfg.Timeout, TimedOut: true})
		}
		if size <= cfg.RulesOOMCap {
			freshGraph := func() *rdf.Graph { return qb.ExportGraph(corpus) }
			m := RunRules(freshGraph, size, rel, cfg.Timeout)
			m.Figure = fig
			out = append(out, m)
		} else {
			out = append(out, Measurement{Figure: fig, Approach: ApproachRules, Size: size, OOM: true})
		}
	}
	return out, nil
}

// Fig5a times complementarity (Fig. 5(a)).
func Fig5a(cfg Config) (Series, error) { return Fig5("5a", rules.Complementarity, cfg) }

// Fig5b times full containment (Fig. 5(b)).
func Fig5b(cfg Config) (Series, error) { return Fig5("5b", rules.FullContainment, cfg) }

// Fig5c times partial containment (Fig. 5(c); the SPARQL comparator only
// detects, never quantifies, exactly as the paper notes).
func Fig5c(cfg Config) (Series, error) { return Fig5("5c", rules.PartialContainment, cfg) }

// Fig5d measures the recall of the three clustering algorithms against the
// baseline ground truth per input size (Fig. 5(d)). Because the
// relationship definitions are deterministic, clustering output is a
// subset of the truth (precision 1, property-tested), so recall is the
// count ratio and no pair sets need materializing.
func Fig5d(cfg Config) (Series, error) {
	cfg = cfg.withDefaults()
	var out Series
	for _, size := range cfg.Sizes {
		s, _, err := realSpace(size, cfg.Seed)
		if err != nil {
			return nil, err
		}
		s.SetRecorder(cfg.Obs)
		truth := &core.Counter{}
		start := time.Now()
		if err := core.ComputeCtx(cfg.Ctx, s, core.AlgorithmBaseline, core.Options{Tasks: core.TaskAll}, truth); err != nil {
			return nil, err
		}
		baseDur := time.Since(start)
		denom := truth.NFull + truth.NPartial + truth.NCompl
		for _, method := range []cluster.Method{cluster.Canopy, cluster.Hierarchical, cluster.XMeans} {
			cnt := &core.Counter{}
			opts := core.Options{Tasks: core.TaskAll}
			opts.Clustering.Config.Method = method
			opts.Clustering.Config.Seed = cfg.Seed
			start := time.Now()
			if err := core.ComputeCtx(cfg.Ctx, s, core.AlgorithmClustering, opts, cnt); err != nil {
				return nil, err
			}
			d := time.Since(start)
			recall := 1.0
			if denom > 0 {
				recall = float64(cnt.NFull+cnt.NPartial+cnt.NCompl) / float64(denom)
			}
			out = append(out, Measurement{
				Figure: "5d", Approach: string(method), Size: size, N: s.N(), Duration: d,
				Full: cnt.NFull, Partial: cnt.NPartial, Compl: cnt.NCompl,
				Extra: map[string]float64{"recall": recall, "baselineSeconds": baseDur.Seconds()},
			})
		}
		s.SetRecorder(nil)
	}
	return out, nil
}

// Fig5e measures log-log scalability on the §4.2 synthetic workload:
// clustering and cubeMasking at every size, the baseline up to BaselineCap
// and projected quadratically beyond it, exactly as the paper projects its
// 2.5 M-observation baseline point.
func Fig5e(cfg Config) (Series, error) {
	cfg = cfg.withDefaults()
	var out Series
	var lastBase Measurement
	for _, size := range cfg.SyntheticSizes {
		c := gen.Synthetic(gen.SyntheticConfig{N: size, Seed: cfg.Seed})
		s, err := core.NewSpace(c)
		if err != nil {
			return nil, err
		}
		if size <= cfg.BaselineCap {
			m, err := RunCoreCtx(cfg.Ctx, s, core.AlgorithmBaseline, rules.FullContainment, core.Options{Obs: cfg.Obs})
			if err != nil {
				return nil, err
			}
			m.Figure = "5e"
			m.Size = size
			out = append(out, m)
			lastBase = m
		} else if lastBase.Size > 0 {
			ratio := float64(size) / float64(lastBase.Size)
			out = append(out, Measurement{
				Figure: "5e", Approach: ApproachBaseline, Size: size,
				Duration: time.Duration(float64(lastBase.Duration) * ratio * ratio), Projected: true,
			})
		}
		opts := core.Options{Obs: cfg.Obs}
		opts.Clustering.Config.Seed = cfg.Seed
		for _, alg := range []core.Algorithm{core.AlgorithmClustering, core.AlgorithmCubeMasking} {
			m, err := RunCoreCtx(cfg.Ctx, s, alg, rules.FullContainment, opts)
			if err != nil {
				return nil, err
			}
			m.Figure = "5e"
			m.Size = size
			out = append(out, m)
		}
	}
	return out, nil
}

// Fig5f measures the number of discovered lattice cubes per input size and
// the cubes-per-observation ratio (Fig. 5(f)); the decreasing ratio is the
// paper's scalability argument for cubeMasking.
func Fig5f(cfg Config) (Series, error) {
	cfg = cfg.withDefaults()
	var out Series
	for _, size := range cfg.Sizes {
		s, _, err := realSpace(size, cfg.Seed)
		if err != nil {
			return nil, err
		}
		s.SetRecorder(cfg.Obs)
		start := time.Now()
		l := core.BuildLattice(s)
		d := time.Since(start)
		s.SetRecorder(nil)
		out = append(out, Measurement{
			Figure: "5f", Approach: "cubes", Size: size, N: s.N(), Duration: d,
			Extra: map[string]float64{
				"cubes": float64(l.Len()),
				"ratio": float64(l.Len()) / float64(s.N()),
			},
		})
	}
	return out, nil
}

// Fig5g measures the children pre-fetching optimization: full-containment
// cubeMasking with and without descendant caching, and their ratio
// (Fig. 5(g); the paper reports prefetching at roughly 0.80–0.85 of the
// normal execution time).
func Fig5g(cfg Config) (Series, error) {
	cfg = cfg.withDefaults()
	var out Series
	for _, size := range cfg.Sizes {
		s, _, err := realSpace(size, cfg.Seed)
		if err != nil {
			return nil, err
		}
		normal, err := RunCoreCtx(cfg.Ctx, s, core.AlgorithmCubeMasking, rules.FullContainment, core.Options{Obs: cfg.Obs})
		if err != nil {
			return nil, err
		}
		pre, err := RunCoreCtx(cfg.Ctx, s, core.AlgorithmCubeMaskingPrefetch, rules.FullContainment, core.Options{Obs: cfg.Obs})
		if err != nil {
			return nil, err
		}
		ratio := pre.Duration.Seconds() / normal.Duration.Seconds()
		normal.Figure, pre.Figure = "5g", "5g"
		normal.Size, pre.Size = size, size
		normal.Approach, pre.Approach = "normal", "prefetch"
		pre.Extra = map[string]float64{"ratio": ratio}
		out = append(out, normal, pre)
	}
	return out, nil
}

// Extensions benchmarks the future-work implementations against plain
// cubeMasking on full containment: hybrid (clustered oversized cubes) and
// the parallel worker pool.
func Extensions(cfg Config) (Series, error) {
	cfg = cfg.withDefaults()
	var out Series
	for _, size := range cfg.Sizes {
		s, _, err := realSpace(size, cfg.Seed)
		if err != nil {
			return nil, err
		}
		opts := core.Options{Obs: cfg.Obs}
		opts.Clustering.Config.Seed = cfg.Seed
		opts.Hybrid.Clustering.Config.Seed = cfg.Seed
		for _, alg := range []core.Algorithm{core.AlgorithmCubeMasking, core.AlgorithmHybrid, core.AlgorithmParallel} {
			// Only the pooled run takes the pool size: cubeMasking honours
			// Workers too, and is the serial reference here.
			opts.Workers = 0
			if alg == core.AlgorithmParallel {
				opts.Workers = cfg.Workers
			}
			m, err := RunCoreCtx(cfg.Ctx, s, alg, rules.FullContainment, opts)
			if err != nil {
				return nil, err
			}
			m.Figure = "ext"
			m.Size = size
			out = append(out, m)
		}
	}
	return out, nil
}

// TableFourManifest renders the generated datasets as the paper's Table 4:
// one row per dataset with its dimensions and measure.
func TableFourManifest(totalObs int, seed int64) string {
	c := gen.RealWorld(gen.RealWorldConfig{TotalObs: totalObs, Seed: seed})
	out := fmt.Sprintf("%-8s %-8s %s\n", "dataset", "obs", "dimensions; measure")
	for i, spec := range gen.TableFour() {
		ds := c.Datasets[i]
		dims := ""
		for j, d := range ds.Schema.Dimensions {
			if j > 0 {
				dims += ", "
			}
			dims += d.Local()
		}
		out += fmt.Sprintf("%-8s %-8d %s; %s\n", spec.Name, len(ds.Observations), dims, spec.MeasureName)
	}
	return out
}
