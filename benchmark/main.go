// Command benchmark is the one benchmark for the whole stack. It builds
// each workload from a seed, drives the system only through its public
// entry points and HTTP routes, checks that the outputs are correct, and
// prints every metric by name with its unit; the last line of standard
// output is one JSON object in the driver's schema (see BENCHMARK.json at
// the repository root and README.md here).
//
//	bash benchmark/run.sh --workload read --seed 1 --seconds 25 --trace 0
//	bash benchmark/run.sh -workload all -seed 1 -trace
//	bash benchmark/run.sh -workload all -aa 2
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	aa       int
	workdir  string // scratch for snapshots and WALs (created, then removed)
	outdir   string // where trace-<workload>.json goes
	// probed carries layer-probe results from one workload of a process to
	// the next (see run.probed); nil shares nothing.
	probed map[string]map[string]float64
}

// normalizeTrace lets -trace stand bare (the issue's form) or take its
// value as a separate argument (the driver's "--trace 0"), which Go's
// boolean flags cannot: a bare one becomes -trace=1 and a detached value
// is attached.
func normalizeTrace(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		if a := args[i]; a == "-trace" || a == "--trace" {
			v := "1"
			if i+1 < len(args) {
				if _, err := strconv.ParseBool(args[i+1]); err == nil {
					v = args[i+1]
					i++
				}
			}
			out = append(out, "-trace="+v)
			continue
		}
		out = append(out, args[i])
	}
	return out
}

func main() {
	o := options{workdir: filepath.Join(".bench_build", "work"), outdir: filepath.Join("benchmark", "out")}
	flag.StringVar(&o.workload, "workload", "all", "workload to run: batch, read, ingest, topology or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the corpus and of every request plan")
	flag.Float64Var(&o.seconds, "seconds", refSeconds, "scales the number of rounds a run makes (never what a round does); the committed round counts apply at 25, where they measure for about that long")
	flag.BoolVar(&o.trace, "trace", false, "repeat the workload with harness-side spans and run the layer probes: the per-layer metrics instead of the end-to-end ones")
	flag.IntVar(&o.aa, "aa", 0, "A/A mode: run the set N times (2 is the usual choice) and print each end-to-end metric's relative spread against its bound; exits non-zero on a breach")
	if err := flag.CommandLine.Parse(normalizeTrace(os.Args[1:])); err != nil {
		os.Exit(2)
	}
	if flag.NArg() > 0 {
		fatal("unexpected arguments: %v", flag.Args())
	}
	if o.seconds <= 0 {
		fatal("-seconds must be positive")
	}
	names, err := workloadNames(o.workload)
	if err != nil {
		fatal("%v", err)
	}
	if o.aa > 0 {
		os.Exit(runAA(o, names))
	}
	ok := true
	var lines []string
	o.probed = map[string]map[string]float64{}
	for _, name := range names {
		rep, err := runWorkload(o, name, o.seed, fullSizes)
		if err != nil {
			fatal("workload %s: %v", name, err)
		}
		rep.print(os.Stdout)
		ok = ok && rep.correct()
		lines = append(lines, rep.jsonLine())
	}
	for _, l := range lines {
		fmt.Println(l)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", a...)
	os.Exit(2)
}

func workloadNames(arg string) ([]string, error) {
	var all []string
	for _, w := range workloadSpecs {
		if w.Name == arg {
			return []string{arg}, nil
		}
		all = append(all, w.Name)
	}
	if arg == "all" {
		return all, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s, all)", arg, strings.Join(all, ", "))
}

// runWorkload runs one workload once — untraced for the end-to-end
// metrics, or traced plus the layer probes for the per-layer metrics —
// bracketed by the host-noise guard.
func runWorkload(o options, name string, seed int64, sz sizes) (*report, error) {
	procs := pinProcs()
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	workdir, err := os.MkdirTemp(o.workdir, name+"-"+strconv.FormatInt(seed, 10)+"-")
	if err != nil {
		return nil, err
	}
	rc := &run{
		workload: name, base: seed, seed: seed, seconds: o.seconds, sz: sz, procs: procs,
		workdir: workdir, rep: newReport(name, o.trace), probed: o.probed, mem: newMemRef(),
	}
	defer rc.cleanup()
	if o.trace {
		rc.tr = newTracer()
	}
	rc.rep.note("seed %d, GOMAXPROCS %d = closed-loop clients, %s, -seconds %g", seed, procs, runtime.Version(), o.seconds)
	if fsync, err := fsyncProbe(workdir, 40); err == nil {
		rc.rep.note("scratch %s on %s: raw 4 KiB write+fsync p50 %.1fus (this sandbox's disk, not a device's)", o.workdir, fsType(workdir), fsync.P50)
	}

	var guard hostGuard
	guard.begin()
	err = rc.runRounds(map[string]func(*samples) error{
		"batch": rc.batchRound, "read": rc.readRound, "ingest": rc.ingestRound, "topology": rc.topologyRound,
	}[name])
	if err != nil {
		return nil, err
	}
	if o.trace {
		if err := rc.layerProbes(); err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
	}
	guard.end()
	rc.rep.set("host.calibrate_ns_before", guard.Before)
	rc.rep.set("host.calibrate_ns_after", guard.After)
	rc.rep.set("failed_frac", float64(rc.rep.failed)/float64(max(rc.rep.attempted, 1)))
	label := "quiet"
	if guard.noisy() {
		label = "NOISY (differ by more than 10 %: read this run's numbers with suspicion)"
	}
	rc.rep.note("host calibrate %.0fns before, %.0fns after: %s", guard.Before, guard.After, label)
	rc.rep.digest = combineDigests(rc.digests...)
	rc.rep.note("plan digest %s", rc.rep.digest)
	if o.trace {
		rc.rep.tracePath = filepath.Join(o.outdir, "trace-"+name+".json")
		if err := rc.tr.writeFile(rc.rep.tracePath); err != nil {
			return nil, err
		}
		rc.rep.note("spans written to %s", rc.rep.tracePath)
		fmt.Printf("per-layer self time, workload %s (span duration minus its children)\n", name)
		rc.tr.printTable(os.Stdout)
	}
	rc.rep.validate()
	return rc.rep, nil
}
