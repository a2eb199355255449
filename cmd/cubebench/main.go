// Command cubebench regenerates the paper's evaluation artefacts: every
// series of Figure 5 (a–g), the Table 4 dataset manifest, and the
// extension ablations. Output is an aligned text table per figure, plus
// optional CSV dumps for plotting.
//
// Usage:
//
//	cubebench -fig all
//	cubebench -fig 5a,5f -sizes 2000,4000,8000 -seed 7
//	cubebench -fig 5e -synthetic-sizes 10000,100000,1000000 -baseline-cap 50000
//	cubebench -fig all -csv results/ -json results/
//	cubebench -fig ext -progress -metrics -debug-addr localhost:6060
//
// The defaults run at laptop scale; the paper's published scale is
// -sizes 2000,20000,40000,...,100000 -synthetic-sizes ...,2500000.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"rdfcube/internal/bench"
	"rdfcube/internal/core"
	"rdfcube/internal/obsv"
	"rdfcube/internal/sigctx"
)

func main() {
	var (
		figs      = flag.String("fig", "all", "comma-separated figures: 5a,5b,5c,5d,5e,5f,5g,ext,table4 or all")
		sizes     = flag.String("sizes", "", "real-world input sizes, e.g. 2000,4000,8000")
		synSizes  = flag.String("synthetic-sizes", "", "synthetic input sizes for 5e")
		seed      = flag.Int64("seed", 1, "generator and clustering seed")
		timeout   = flag.Duration("timeout", 30*time.Second, "per-run comparator timeout")
		compCap   = flag.Int("comparator-cap", 4000, "largest size at which SPARQL/rules are attempted")
		oomCap    = flag.Int("rules-oom-cap", 4000, "size beyond which rules rows are marked o/m")
		baseCap   = flag.Int("baseline-cap", 50000, "largest synthetic size for the measured baseline in 5e")
		workers   = flag.Int("workers", 0, "parallel extension worker count (0 = GOMAXPROCS)")
		csvDir    = flag.String("csv", "", "directory to write per-figure CSV files into")
		jsonDir   = flag.String("json", "", "directory to write per-figure JSON files into (counters included in full)")
		table4Obs = flag.Int("table4-obs", 246500, "total observations for the Table 4 manifest")

		metrics   = flag.Bool("metrics", false, "print the suite-wide run report (phase tree + counter table) to stderr at the end")
		progress  = flag.Bool("progress", false, "stream phase transitions and counter digests to stderr while running")
		debugAddr = flag.String("debug-addr", "", "serve live /metrics, /metrics.json, /debug/vars and /debug/pprof/ on this address for the duration of the suite")
	)
	flag.Parse()

	var col *obsv.Collector
	if *metrics || *debugAddr != "" {
		col = obsv.NewCollector()
	}
	var rec obsv.Recorder
	if col != nil {
		rec = col
	}
	if *progress {
		rec = obsv.Multi(rec, obsv.NewProgress(os.Stderr))
	}
	if *debugAddr != "" {
		srv, url, err := obsv.StartDebugServer(*debugAddr, col)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cubebench: debug server: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "cubebench: debug server listening at %s (metrics at %s/metrics, profiles at %s/debug/pprof/)\n", url, url, url)
	}

	// Two-stage interrupt: the first ^C cancels the sweep cooperatively
	// (completed figures stay printed, the in-flight run aborts at its
	// next guard poll); a second ^C force-quits.
	ctx, stopSig := sigctx.Install(context.Background(), func(second bool) {
		if second {
			fmt.Fprintln(os.Stderr, "cubebench: second interrupt, exiting now")
			return
		}
		fmt.Fprintln(os.Stderr, "cubebench: interrupt: canceling the sweep after the current poll; interrupt again to force-quit")
	}, nil)
	defer stopSig()

	cfg := bench.Config{
		Sizes:          parseSizes(*sizes),
		SyntheticSizes: parseSizes(*synSizes),
		Seed:           *seed,
		Timeout:        *timeout,
		ComparatorCap:  *compCap,
		RulesOOMCap:    *oomCap,
		BaselineCap:    *baseCap,
		Workers:        *workers,
		Obs:            rec,
		Ctx:            ctx,
	}

	want := map[string]bool{}
	for _, f := range strings.Split(*figs, ",") {
		want[strings.TrimSpace(f)] = true
	}
	all := want["all"]

	type figure struct {
		id    string
		title string
		run   func(bench.Config) (bench.Series, error)
	}
	figures := []figure{
		{"5a", "Figure 5(a): execution time — complementarity", bench.Fig5a},
		{"5b", "Figure 5(b): execution time — full containment", bench.Fig5b},
		{"5c", "Figure 5(c): execution time — partial containment (SPARQL detects only)", bench.Fig5c},
		{"5d", "Figure 5(d): clustering recall (canopy / hierarchical / x-means)", bench.Fig5d},
		{"5e", "Figure 5(e): log-log scalability on the synthetic workload (* = projected)", bench.Fig5e},
		{"5f", "Figure 5(f): discovered cubes per input size", bench.Fig5f},
		{"5g", "Figure 5(g): children pre-fetching vs normal (full containment)", bench.Fig5g},
		{"ext", "Extensions: cubeMasking vs hybrid vs parallel (full containment)", bench.Extensions},
	}

	if all || want["table4"] {
		fmt.Println("Table 4: generated dataset manifest (replica of the published datasets)")
		fmt.Println(bench.TableFourManifest(*table4Obs, *seed))
	}

	for _, f := range figures {
		if !all && !want[f.id] {
			continue
		}
		series, err := f.run(cfg)
		if err != nil {
			if errors.Is(err, core.ErrCanceled) {
				fmt.Fprintf(os.Stderr, "cubebench: %s: canceled (%v); figures completed before the interrupt were printed above\n", f.id, err)
				os.Exit(sigctx.ExitCodeInterrupted)
			}
			fmt.Fprintf(os.Stderr, "cubebench: %s: %v\n", f.id, err)
			os.Exit(1)
		}
		fmt.Println(series.Table(f.title))
		if f.id == "5d" {
			fmt.Println(recallTable(series))
		}
		if f.id == "5f" {
			fmt.Println(cubeTable(series))
		}
		if f.id == "5g" {
			fmt.Println(ratioTable(series))
		}
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "cubebench: %v\n", err)
				os.Exit(1)
			}
			path := filepath.Join(*csvDir, "fig"+f.id+".csv")
			if err := os.WriteFile(path, []byte(series.CSV()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "cubebench: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n\n", path)
		}
		if *jsonDir != "" {
			if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "cubebench: %v\n", err)
				os.Exit(1)
			}
			data, err := series.JSON()
			if err != nil {
				fmt.Fprintf(os.Stderr, "cubebench: %s: %v\n", f.id, err)
				os.Exit(1)
			}
			path := filepath.Join(*jsonDir, "fig"+f.id+".json")
			if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "cubebench: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n\n", path)
		}
	}

	if *metrics {
		fmt.Fprint(os.Stderr, col.Report())
	}
}

func parseSizes(s string) []int {
	if s == "" {
		return nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "cubebench: bad size %q\n", part)
			os.Exit(2)
		}
		out = append(out, n)
	}
	return out
}

func recallTable(s bench.Series) string {
	var b strings.Builder
	b.WriteString("recall by method and size:\n")
	fmt.Fprintf(&b, "%-14s %-10s %s\n", "method", "size", "recall")
	for _, m := range s {
		fmt.Fprintf(&b, "%-14s %-10d %.4f\n", m.Approach, m.Size, m.Extra["recall"])
	}
	return b.String()
}

func cubeTable(s bench.Series) string {
	var b strings.Builder
	b.WriteString("cubes and cubes/observation ratio:\n")
	fmt.Fprintf(&b, "%-10s %-10s %s\n", "size", "cubes", "ratio")
	for _, m := range s {
		fmt.Fprintf(&b, "%-10d %-10.0f %.5f\n", m.Size, m.Extra["cubes"], m.Extra["ratio"])
	}
	return b.String()
}

func ratioTable(s bench.Series) string {
	var b strings.Builder
	b.WriteString("prefetch/normal execution-time ratio:\n")
	fmt.Fprintf(&b, "%-10s %s\n", "size", "ratio")
	for _, m := range s {
		if m.Approach == "prefetch" {
			fmt.Fprintf(&b, "%-10d %.3f\n", m.Size, m.Extra["ratio"])
		}
	}
	return b.String()
}
