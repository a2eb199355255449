// Command cubrel computes containment and complementarity relationships
// over QB data: load a Turtle corpus (or generate one), run an algorithm,
// and print a summary, a CSV pair listing, or an RDF export in the qbr:
// vocabulary.
//
// Usage:
//
//	cubrel -in data.ttl -alg cubemasking -format summary
//	cubrel -gen real -n 5000 -alg baseline -format csv
//	cubrel -gen example -format ttl > relationships.ttl
//	cubrel -in data.ttl -query 'SELECT ?o WHERE { ?o a qb:Observation } LIMIT 5'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	rdfcube "rdfcube"
	"rdfcube/internal/core"
	"rdfcube/internal/sigctx"
)

func main() {
	var (
		in      = flag.String("in", "", "input Turtle file with QB datasets and SKOS code lists")
		inCSV   = flag.String("in-csv", "", "input CSV table (header row first); requires -hierarchies")
		hier    = flag.String("hierarchies", "", "Turtle file with SKOS code lists for -in-csv")
		genK    = flag.String("gen", "", "generate instead of loading: example, real, synthetic")
		n       = flag.Int("n", 5000, "observation count for -gen real/synthetic")
		seed    = flag.Int64("seed", 1, "generator seed")
		algStr  = flag.String("alg", "cubemasking", "algorithm: "+core.AlgorithmNames())
		workers = flag.Int("workers", 0, "worker-pool size for baseline, clustering, cubemasking and parallel (0 = serial, except GOMAXPROCS for parallel; ignored by cubemasking-prefetch and hybrid); output is identical to a serial run, but a canceled pooled run keeps a salvaged subset, not an ordered prefix")
		tasks   = flag.String("tasks", "all", "relationships: full, partial, compl, all (comma-separated)")
		format  = flag.String("format", "summary", "output: summary, csv, ttl")
		query   = flag.String("query", "", "run a SPARQL query against the corpus instead of computing relationships")
		check   = flag.Bool("check", false, "validate QB integrity constraints and exit")
		explore = flag.String("explore", "", "observation URI (or local name) to explore: prints its containment/complementarity neighborhood")
		related = flag.Bool("relatedness", false, "print the dataset-pair relatedness ranking and matrix")
		rollup  = flag.String("rollup", "", "roll every dataset up before computing: <dimensionLocalName>:<level> (e.g. refArea:2)")
		aggStr  = flag.String("agg", "sum", "roll-up aggregation: sum, avg, count")
		vocab   = flag.Bool("vocab", false, "print the qbr: relationship vocabulary definition and exit")

		metrics   = flag.Bool("metrics", false, "print a run report (phase tree + counter table) to stderr after computing")
		progress  = flag.Bool("progress", false, "stream phase transitions and counter digests to stderr while computing")
		debugAddr = flag.String("debug-addr", "", "serve live /metrics, /metrics.json, /debug/vars and /debug/pprof/ on this address (e.g. localhost:6060) for the duration of the run")
	)
	flag.Parse()

	if *vocab {
		fmt.Print(rdfcube.QBRVocabularyTurtle())
		return
	}

	corpus, err := loadCorpusAll(*in, *inCSV, *hier, *genK, *n, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cubrel: %v\n", err)
		os.Exit(1)
	}

	if *check {
		vs, err := rdfcube.CheckIntegrity(corpus)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cubrel: %v\n", err)
			os.Exit(1)
		}
		if len(vs) == 0 {
			fmt.Println("ok: no integrity violations")
			return
		}
		for _, v := range vs {
			fmt.Println(v)
		}
		os.Exit(1)
	}

	if *query != "" {
		res, err := rdfcube.Query(corpus, *query)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cubrel: query: %v\n", err)
			os.Exit(1)
		}
		for _, v := range res.Vars {
			fmt.Printf("%s\t", v)
		}
		fmt.Println()
		for _, sol := range res.Solutions {
			for _, v := range res.Vars {
				fmt.Printf("%s\t", sol[v])
			}
			fmt.Println()
		}
		return
	}

	if *rollup != "" {
		corpus, err = applyRollUp(corpus, *rollup, *aggStr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cubrel: %v\n", err)
			os.Exit(1)
		}
	}

	if *related {
		if err := printRelatedness(corpus); err != nil {
			fmt.Fprintf(os.Stderr, "cubrel: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *explore != "" {
		if err := exploreObservation(corpus, *explore); err != nil {
			fmt.Fprintf(os.Stderr, "cubrel: %v\n", err)
			os.Exit(1)
		}
		return
	}

	opts := rdfcube.Options{Tasks: parseTasks(*tasks), Workers: *workers}
	opts.Clustering.Config.Seed = *seed

	var col *rdfcube.Collector
	if *metrics || *debugAddr != "" {
		col = rdfcube.NewCollector()
	}
	var rec rdfcube.Recorder
	if col != nil {
		rec = col
	}
	if *progress {
		rec = rdfcube.MultiRecorder(rec, rdfcube.NewProgress(os.Stderr))
	}
	opts.Obs = rec
	if *debugAddr != "" {
		srv, url, err := rdfcube.StartDebugServer(*debugAddr, col)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cubrel: debug server: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "cubrel: debug server listening at %s (metrics at %s/metrics, profiles at %s/debug/pprof/)\n", url, url, url)
	}

	// Two-stage interrupt: the first ^C cancels the compute cooperatively
	// — the partial result (a subset of the full run's sets; a prefix of
	// its stream when the run was serial) is salvaged and printed below —
	// and a second ^C force-quits.
	ctx, stopSig := sigctx.Install(context.Background(), func(second bool) {
		if second {
			fmt.Fprintln(os.Stderr, "cubrel: second interrupt, exiting now")
			return
		}
		fmt.Fprintln(os.Stderr, "cubrel: interrupt: canceling compute, will report the salvaged partial result; interrupt again to force-quit")
	}, nil)

	start := time.Now()
	comp, err := rdfcube.ComputeContext(ctx, corpus, rdfcube.Algorithm(*algStr), opts)
	stopSig()
	canceled := errors.Is(err, rdfcube.ErrCanceled)
	if err != nil && !canceled {
		fmt.Fprintf(os.Stderr, "cubrel: %v\n", err)
		os.Exit(1)
	}
	elapsed := time.Since(start)
	if canceled {
		f, p, c := comp.Result.Counts()
		fmt.Fprintf(os.Stderr, "cubrel: canceled after %s: %v\n", elapsed.Round(time.Millisecond), err)
		fmt.Fprintf(os.Stderr, "cubrel: salvaged %d full, %d partial, %d complementarity pairs (a subset of the full run's output)\n", f, p, c)
	}
	if *metrics {
		fmt.Fprint(os.Stderr, col.Report())
	}

	switch *format {
	case "summary":
		f, p, c := comp.Result.Counts()
		fmt.Printf("algorithm:            %s\n", *algStr)
		fmt.Printf("observations:         %d\n", comp.Space.N())
		fmt.Printf("dimensions:           %d\n", comp.Space.NumDims())
		fmt.Printf("full containment:     %d pairs\n", f)
		fmt.Printf("partial containment:  %d pairs\n", p)
		fmt.Printf("complementarity:      %d pairs\n", c)
		fmt.Printf("elapsed:              %s\n", elapsed)
	case "csv":
		fmt.Println("relationship,source,target,degree")
		for _, pr := range comp.Result.FullSet {
			fmt.Printf("full,%s,%s,1\n", comp.Obs(pr.A).URI.Value, comp.Obs(pr.B).URI.Value)
		}
		for _, pr := range comp.Result.PartialSet {
			fmt.Printf("partial,%s,%s,%.4f\n", comp.Obs(pr.A).URI.Value, comp.Obs(pr.B).URI.Value,
				comp.Space.Degree(pr.A, pr.B))
		}
		for _, pr := range comp.Result.ComplSet {
			fmt.Printf("complementarity,%s,%s,1\n", comp.Obs(pr.A).URI.Value, comp.Obs(pr.B).URI.Value)
		}
	case "ttl":
		fmt.Print(rdfcube.ExportRelationships(comp))
	case "merged":
		rows := rdfcube.MergeComplements(comp)
		fmt.Printf("%d combined data points from complementary observations:\n", len(rows))
		for _, row := range rows {
			for _, v := range row.DimValues {
				fmt.Printf("%s ", v.Local())
			}
			measures := make([]rdfcube.Term, 0, len(row.Measures))
			for m := range row.Measures {
				measures = append(measures, m)
			}
			sort.Slice(measures, func(i, j int) bool { return measures[i].Compare(measures[j]) < 0 })
			for _, m := range measures {
				fmt.Printf(" %s=%s", m.Local(), row.Measures[m].Value)
			}
			if len(row.Conflicts) > 0 {
				fmt.Printf(" (conflicts: %d)", len(row.Conflicts))
			}
			fmt.Println()
		}
	default:
		fmt.Fprintf(os.Stderr, "cubrel: unknown format %q\n", *format)
		os.Exit(2)
	}
	if canceled {
		os.Exit(sigctx.ExitCodeInterrupted)
	}
}

// applyRollUp rolls every dataset that carries the named dimension up to
// the given level and returns a corpus of the aggregated datasets (other
// datasets pass through unchanged).
func applyRollUp(corpus *rdfcube.Corpus, spec, aggName string) (*rdfcube.Corpus, error) {
	colon := -1
	for i := 0; i < len(spec); i++ {
		if spec[i] == ':' {
			colon = i
		}
	}
	if colon < 1 || colon == len(spec)-1 {
		return nil, fmt.Errorf("-rollup wants <dimension>:<level>, got %q", spec)
	}
	dimName := spec[:colon]
	level := 0
	for _, c := range spec[colon+1:] {
		if c < '0' || c > '9' {
			return nil, fmt.Errorf("bad level in %q", spec)
		}
		level = level*10 + int(c-'0')
	}
	var agg rdfcube.Aggregation
	switch aggName {
	case "sum":
		agg = rdfcube.AggSum
	case "avg":
		agg = rdfcube.AggAvg
	case "count":
		agg = rdfcube.AggCount
	default:
		return nil, fmt.Errorf("unknown aggregation %q", aggName)
	}
	space, err := rdfcube.Compile(corpus)
	if err != nil {
		return nil, err
	}
	out := rdfcube.NewCorpus(corpus.Hierarchies)
	for i, ds := range corpus.Datasets {
		var dim rdfcube.Term
		for _, d := range ds.Schema.Dimensions {
			if d.Local() == dimName {
				dim = d
			}
		}
		if dim.IsZero() {
			out.AddDataset(ds)
			continue
		}
		up, err := rdfcube.RollUp(space, i, dim, level, agg)
		if err != nil {
			return nil, err
		}
		out.AddDataset(up)
	}
	return out, nil
}

// printRelatedness computes all relationships and prints the source
// relatedness ranking and score matrix.
func printRelatedness(corpus *rdfcube.Corpus) error {
	comp, err := rdfcube.Compute(corpus, rdfcube.CubeMasking, rdfcube.Options{})
	if err != nil {
		return err
	}
	rel := core.ComputeRelatedness(comp.Space, comp.Result)
	fmt.Println("most related dataset pairs:")
	for i, e := range rel.MostRelated() {
		if i >= 10 {
			break
		}
		fmt.Println("  " + e.String())
	}
	fmt.Println("\nscore matrix:")
	fmt.Print(rel.Table())
	return nil
}

// exploreObservation prints one observation's materialized neighborhood:
// its roll-ups, drill-downs and complementary partners.
func exploreObservation(corpus *rdfcube.Corpus, target string) error {
	ix, err := rdfcube.BuildExplorationIndex(corpus)
	if err != nil {
		return err
	}
	s := ix.Space()
	pick := -1
	for i, o := range s.Obs {
		if o.URI.Value == target || o.URI.Local() == target {
			pick = i
			break
		}
	}
	if pick < 0 {
		return fmt.Errorf("observation %q not found", target)
	}
	describe := func(i int) string {
		o := s.Obs[i]
		out := o.URI.Local()
		for _, d := range o.Dataset.Schema.Dimensions {
			out += " " + o.Value(d).Local()
		}
		return out
	}
	fmt.Printf("observation: %s\n", describe(pick))
	fmt.Println("rolls up to (immediate containers):")
	for _, j := range ix.RollUp(pick) {
		fmt.Println("  " + describe(j))
	}
	fmt.Println("drills down to (immediate details):")
	for _, j := range ix.DrillDown(pick) {
		fmt.Println("  " + describe(j))
	}
	fmt.Println("complemented by:")
	for _, j := range ix.Complements(pick) {
		fmt.Println("  " + describe(int(j)))
	}
	return nil
}

func loadCorpusAll(in, inCSV, hier, genKind string, n int, seed int64) (*rdfcube.Corpus, error) {
	if inCSV != "" {
		if hier == "" {
			return nil, fmt.Errorf("-in-csv requires -hierarchies with the SKOS code lists")
		}
		hdata, err := os.ReadFile(hier)
		if err != nil {
			return nil, err
		}
		reg, err := rdfcube.LoadHierarchiesTurtle(string(hdata))
		if err != nil {
			return nil, err
		}
		f, err := os.Open(inCSV)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return rdfcube.LoadCSV(f, reg, rdfcube.CSVOptions{FuzzyCodes: true})
	}
	return loadCorpus(in, genKind, n, seed)
}

func loadCorpus(in, genKind string, n int, seed int64) (*rdfcube.Corpus, error) {
	switch {
	case in != "" && genKind != "":
		return nil, fmt.Errorf("use either -in or -gen, not both")
	case in != "":
		data, err := os.ReadFile(in)
		if err != nil {
			return nil, err
		}
		return rdfcube.LoadTurtle(string(data))
	case genKind == "example":
		return rdfcube.ExampleCorpus(), nil
	case genKind == "real":
		return rdfcube.GenerateRealWorld(n, seed), nil
	case genKind == "synthetic":
		return rdfcube.GenerateSynthetic(n, seed), nil
	default:
		return nil, fmt.Errorf("need -in FILE or -gen example|real|synthetic")
	}
}

func parseTasks(s string) rdfcube.Tasks {
	var t rdfcube.Tasks
	for _, part := range splitComma(s) {
		switch part {
		case "full":
			t |= rdfcube.TaskFull
		case "partial":
			t |= rdfcube.TaskPartial
		case "compl", "complementarity":
			t |= rdfcube.TaskCompl
		case "all", "":
			t |= rdfcube.TaskAll
		default:
			fmt.Fprintf(os.Stderr, "cubrel: unknown task %q\n", part)
			os.Exit(2)
		}
	}
	return t
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return out
}
