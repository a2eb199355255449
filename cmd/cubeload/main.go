// Command cubeload drives a relationship-serving server with
// deterministic, corpus-derived traffic and reports latency quantiles,
// goodput and shed rates. With -baseline-out / -compare it writes and
// gates against a committed LOAD_*.json, giving CI an end-to-end
// serving-path SLO check alongside cubebench's kernel gate.
//
// Usage:
//
//	cubeload                                   # in-process run, defaults
//	cubeload -gen realworld -n 2000 -mix mixed -requests 4000 -concurrency 8
//	cubeload -mix storm -rps 500               # open-loop pacing
//	cubeload -url http://127.0.0.1:8080        # drive a running cubed
//	cubeload -baseline-out LOAD_0.json         # record the baseline
//	cubeload -compare LOAD_0.json              # replay it; exit 1 on regression
//
// A -compare run rebuilds the workload from the baseline file (generator,
// seed, mix, request count, concurrency), so the flags cannot drift from
// what the baseline measured; the plan digest in the report proves both
// runs issued byte-identical request sequences.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strings"

	"rdfcube/internal/core"
	"rdfcube/internal/gen"
	"rdfcube/internal/loadgen"
	"rdfcube/internal/obsv"
	"rdfcube/internal/qb"
	"rdfcube/internal/serve"
	"rdfcube/internal/sigctx"
	"rdfcube/internal/snapshot"
)

func main() {
	var (
		genName     = flag.String("gen", "realworld", "corpus generator: realworld or paper")
		n           = flag.Int("n", 2000, "realworld corpus observation count")
		seed        = flag.Int64("seed", 1, "corpus and plan seed")
		mix         = flag.String("mix", "mixed", "traffic mix: "+strings.Join(loadgen.Mixes(), ", "))
		requests    = flag.Int("requests", 4000, "plan length")
		concurrency = flag.Int("concurrency", 8, "closed-loop workers / open-loop in-flight cap")
		rps         = flag.Float64("rps", 0, "open-loop request rate (0 = closed loop)")
		url         = flag.String("url", "", "drive a running server instead of in-process; a comma-separated list round-robins reads across all targets and sends writes to the first (the leader)")
		baselineOut = flag.String("baseline-out", "", "write the run's LOAD_*.json report to this path")
		compare     = flag.String("compare", "", "compare against this committed LOAD_*.json (workload is taken from the file); exit 1 on regression")
		jsonOut     = flag.String("json", "", "also write the report JSON to this path")
		note        = flag.String("note", "", "provenance note recorded in the report")
		p99Frac     = flag.Float64("p99-tolerance", 0.75, "allowed fractional p99 increase for -compare, after calibration normalization")
		injectDelay = flag.Duration("inject-delay", 0, "artificial added delay per request (validates that the gate catches a slowdown)")
		retry       = flag.Bool("retry", false, "polite-client mode: retry 429/503 with backoff, honoring Retry-After; latency then covers the whole exchange")
	)
	flag.Parse()

	ctx, stop := sigctx.Install(context.Background(), nil, os.Exit)
	defer stop()

	cfg := loadgen.PlanConfig{Gen: *genName, N: *n, Seed: *seed, Mix: *mix, Requests: *requests}
	opts := loadgen.Options{Concurrency: *concurrency, RPS: *rps, InjectDelay: *injectDelay, Retry: *retry}

	var base *loadgen.LoadReport
	if *compare != "" {
		var err error
		base, err = loadgen.ReadReport(*compare)
		if err != nil {
			fatal("read baseline: %v", err)
		}
		// The baseline defines the workload; flags must not drift from it.
		cfg = base.Config
		opts.Concurrency = base.Concurrency
		opts.RPS = base.RPS
	}

	corpus := buildCorpus(cfg)
	plan, err := loadgen.BuildPlan(cfg, corpus)
	if err != nil {
		fatal("%v", err)
	}

	if *url != "" {
		opts.Transport = http.DefaultTransport
		var targets []string
		for _, t := range strings.Split(*url, ",") {
			if t = strings.TrimRight(strings.TrimSpace(t), "/"); t != "" {
				targets = append(targets, t)
			}
		}
		if len(targets) == 0 {
			fatal("-url has no usable targets: %q", *url)
		}
		opts.BaseURL = targets[0]
		if len(targets) > 1 {
			opts.BaseURLs = targets
		}
	} else {
		srv := buildServer(corpus, cfg)
		opts.Transport = loadgen.HandlerTransport{H: srv.Handler()}
		defer srv.BeginShutdown()
	}

	stats, err := loadgen.Run(ctx, plan, opts)
	if err != nil {
		fatal("%v", err)
	}
	rep := loadgen.NewReport(plan, opts, stats, *note)
	fmt.Print(rep.Text())

	for _, path := range []string{*baselineOut, *jsonOut} {
		if path == "" {
			continue
		}
		if err := rep.WriteFile(path); err != nil {
			fatal("write %s: %v", path, err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}

	if base != nil {
		regs := loadgen.Compare(base, rep, loadgen.Tolerance{P99Frac: *p99Frac})
		if len(regs) > 0 {
			fmt.Fprintf(os.Stderr, "\nLOAD REGRESSIONS vs %s:\n", *compare)
			for _, r := range regs {
				fmt.Fprintf(os.Stderr, "  %s\n", r)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "no regressions vs %s\n", *compare)
	}
}

// buildCorpus generates the workload corpus named by the config.
func buildCorpus(cfg loadgen.PlanConfig) *qb.Corpus {
	switch cfg.Gen {
	case "paper":
		return gen.PaperExample()
	case "realworld", "":
		return gen.RealWorld(gen.RealWorldConfig{TotalObs: cfg.N, Seed: cfg.Seed})
	default:
		fatal("unknown generator %q (use realworld or paper)", cfg.Gen)
		return nil
	}
}

// buildServer computes the relationship state over the corpus and wraps
// it in an in-process serve.Server with a Collector recorder, mirroring
// what cubed serves (minus the WAL: a load run's inserts are ephemeral).
func buildServer(corpus *qb.Corpus, cfg loadgen.PlanConfig) *serve.Server {
	s, res, err := core.ComputeCorpusCtx(context.Background(), corpus, core.AlgorithmCubeMasking, core.Options{})
	if err != nil {
		fatal("compute: %v", err)
	}
	srv, err := serve.New(snapshot.New(s, res, core.BuildLattice(s)), serve.Config{
		Recorder: obsv.NewCollector(),
		Workers:  runtime.GOMAXPROCS(0),
	})
	if err != nil {
		fatal("serve.New: %v", err)
	}
	return srv
}

func fatal(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "cubeload: "+format+"\n", a...)
	os.Exit(1)
}
