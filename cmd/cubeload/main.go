// Command cubeload drives a relationship-serving server with
// deterministic, corpus-derived traffic and reports latency quantiles,
// goodput and shed rates. It is a traffic driver, not a gate: it exits 0
// whatever the latencies were (performance is compared by BENCHMARK.json
// and benchmark/, which builds its traffic with the same loadgen plans).
//
// Usage:
//
//	cubeload                                   # in-process run, defaults
//	cubeload -gen realworld -n 2000 -mix mixed -requests 4000 -concurrency 8
//	cubeload -mix explorer -rps 500            # open-loop pacing
//	cubeload -url http://127.0.0.1:8080        # drive a running cubed
//	cubeload -url http://gate:8080 -retry      # polite client against a gate
//	cubeload -json run.json                    # also write the report as JSON
//
// The same -gen/-n/-seed/-mix/-requests always expand to the same request
// sequence; the plan digest in the report says so.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
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
		jsonOut     = flag.String("json", "", "also write the report as JSON to this path")
		note        = flag.String("note", "", "provenance note recorded in the report")
		retry       = flag.Bool("retry", false, "polite-client mode: retry 429/503 with backoff, honoring Retry-After; latency then covers the whole exchange")
	)
	flag.Parse()

	ctx, stop := sigctx.Install(context.Background(), nil, os.Exit)
	defer stop()

	cfg := loadgen.PlanConfig{Gen: *genName, N: *n, Seed: *seed, Mix: *mix, Requests: *requests}
	opts := loadgen.Options{Concurrency: *concurrency, RPS: *rps, Retry: *retry}

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

	if *jsonOut != "" {
		if err := rep.WriteFile(*jsonOut); err != nil {
			fatal("write %s: %v", *jsonOut, err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonOut)
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
	srv, err := serve.New(snapshot.New(s, res, core.BuildLattice(s)), serve.Config{Recorder: obsv.NewCollector()})
	if err != nil {
		fatal("serve.New: %v", err)
	}
	return srv
}

func fatal(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "cubeload: "+format+"\n", a...)
	os.Exit(1)
}
