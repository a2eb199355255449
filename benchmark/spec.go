package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// The benchmark's declared surface: workloads, end-to-end metrics with
// their regression bounds, per-layer metrics. BENCHMARK.json at the repo
// root is the same table in the driver's schema; bench_test.go keeps the
// two in step.

type workloadSpec struct {
	Name string
	Why  string
}

type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

var workloadSpecs = []workloadSpec{
	{"batch", "the paper's experiment plus what a restart costs: core, lattice, bitvec and snapshot do nearly all the work; wal, gate and replica almost none"},
	{"read", "isolates serve adjacency lookup and JSON rendering in-process: no WAL, no core.Incremental, no gate and no sockets in the timed phase"},
	{"ingest", "the durable write path (wal fsync, core.Incremental, adjacency delta) beside reads on the same structures under one RWMutex"},
	{"topology", "loopback HTTP through gate to 3 shards with WAL and followers: the only workload with scatter/merge/hedge, net/http and follower apply on the path"},
}

// endToEnd lists what a user of the system sees. Every workload reports
// every metric (the driver's contract); README.md says which stage of
// which workload fills it.
//
// Bounds. ISSUE 11 asked for 0.10 on the timings. results/aa.md has the
// ten-seed tables: on the 2-vCPU sandbox this was written on, the timings
// of identical code spread 0.04 to 0.15 between runs even after rounds and
// host normalisation (0.06 to 0.25 as measured), because the shared host's
// memory speed drifts by the minute. Timings therefore carry the largest
// bound the driver allows; the two size metrics, which repeat to within
// 2 % across seeds, carry 0.10.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"batch_pairs_per_s", "1/s", "higher", 0.25},
	{"checkpoint_s", "s", "lower", 0.25},
	{"recover_s", "s", "lower", 0.25},
	{"snapshot_bytes_per_obs", "B/obs", "lower", 0.10},
	{"related_p50_us", "us", "lower", 0.25},
	{"insert_p50_us", "us", "lower", 0.25},
	{"goodput_rps", "1/s", "higher", 0.25},
	{"wal_replay_rps", "1/s", "higher", 0.25},
	{"heap_live_mb", "MB", "lower", 0.10},
}

// perLayer lists the single-layer metrics of the traced run (no bounds).
var perLayer = []metricSpec{
	// End-to-end by nature, reported here by necessity. The two p99s moved
	// under their own names, as ISSUE 11 provides for a tail that will not
	// hold its bound: they spread 0.12 to 0.50 against the 0.25 the driver
	// allows. A healthy run's failure share is 0, which the driver's
	// "never 0" rule and a relative bound cannot carry; the result line's
	// failed and attempted carry it too.
	{"related_p99_us", "us", "lower", 0},
	{"insert_p99_us", "us", "lower", 0},
	{"failed_frac", "frac", "lower", 0},

	{"gen.corpus_s", "s", "lower", 0},
	{"core.compile_s", "s", "lower", 0},
	{"core.om_build_s", "s", "lower", 0},
	{"core.baseline.pairs_per_s", "1/s", "higher", 0},
	{"core.clustering.pairs_per_s", "1/s", "higher", 0},
	{"core.clustering.recall", "frac", "higher", 0},
	{"core.cubemask.pairs_per_s", "1/s", "higher", 0},
	{"core.cubemask.par_speedup", "x", "higher", 0},
	{"core.cubemask.pruned_frac", "frac", "higher", 0},
	{"core.result.materialize_s", "s", "lower", 0},
	{"core.result.sort_s", "s", "lower", 0},
	{"core.result.partial_pairs", "count", "lower", 0},
	{"lattice.build_s", "s", "lower", 0},
	{"lattice.cubes", "count", "lower", 0},
	{"lattice.comparable_pair_frac", "frac", "lower", 0},
	{"bitvec.subset_ns_per_row", "ns", "lower", 0},
	{"core.incremental.insert_us_p50", "us", "lower", 0},
	{"core.incremental.insert_us_p99", "us", "lower", 0},
	{"wal.append_os_us_p50", "us", "lower", 0},
	{"wal.append_os_us_p99", "us", "lower", 0},
	{"wal.append_mem_us_p50", "us", "lower", 0},
	{"wal.fsync_share", "frac", "lower", 0},
	{"wal.bytes_per_record", "B", "lower", 0},
	{"wal.open_records_per_s", "1/s", "higher", 0},
	{"snapshot.encode_mb_per_s", "MB/s", "higher", 0},
	{"snapshot.decode_mb_per_s", "MB/s", "higher", 0},
	{"snapshot.bytes", "B", "lower", 0},
	{"snapshot.rotator_write_s", "s", "lower", 0},
	{"snapshot.decode_alloc_mb", "MB", "lower", 0},
	{"serve.new_s", "s", "lower", 0},
	{"serve.heap_bytes_per_pair", "B", "lower", 0},
	{"serve.related.us_p50", "us", "lower", 0},
	{"serve.related.us_p99", "us", "lower", 0},
	{"serve.contains.us_p50", "us", "lower", 0},
	{"serve.contains.us_p99", "us", "lower", 0},
	{"serve.complements.us_p50", "us", "lower", 0},
	{"serve.complements.us_p99", "us", "lower", 0},
	{"serve.obs.us_p50", "us", "lower", 0},
	{"serve.obs.us_p99", "us", "lower", 0},
	{"serve.stats.us_p50", "us", "lower", 0},
	{"serve.stats.us_p99", "us", "lower", 0},
	{"serve.insert.us_p50", "us", "lower", 0},
	{"serve.insert.us_p99", "us", "lower", 0},
	{"serve.related.resp_bytes_p50", "B", "lower", 0},
	{"serve.related.ns_per_neighbor", "ns", "lower", 0},
	{"serve.insert.self_us_p50", "us", "lower", 0},
	{"serve.contains.contended_ratio", "x", "lower", 0},
	{"serve.checkpoint_stall_ms", "ms", "lower", 0},
	{"serve.apply_replicated_rps", "1/s", "higher", 0},
	{"replica.bootstrap_s", "s", "lower", 0},
	{"replica.lag_ms_p50", "ms", "lower", 0},
	{"replica.lag_ms_p99", "ms", "lower", 0},
	{"gate.related.direct_us_p50", "us", "lower", 0},
	{"gate.related.overhead_us_p50", "us", "lower", 0},
	{"gate.related.overhead_us_p99", "us", "lower", 0},
	{"gate.insert.overhead_us_p50", "us", "lower", 0},
	{"gate.hedge_fired_frac", "frac", "lower", 0},
	{"gate.hedge_won_frac", "frac", "higher", 0},
	{"gate.partial_frac", "frac", "lower", 0},
	{"gate.write_retries", "count", "lower", 0},
	{"bench.client_us_p50", "us", "lower", 0},
	{"bench.trace_overhead_frac", "frac", "lower", 0},
	{"bench.reconcile_insert_ratio", "x", "lower", 0},
	{"bench.reconcile_related_ratio", "x", "lower", 0},
	{"host.mem_factor", "x", "lower", 0},
	{"host.calibrate_ns_before", "ns", "lower", 0},
	{"host.calibrate_ns_after", "ns", "lower", 0},
}

// metricValue is one reported number in the driver's result schema.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report accumulates one workload run.
type report struct {
	workload  string
	specs     []metricSpec
	values    map[string]float64
	attempted int
	failed    int
	problems  []string // failed correctness checks
	notes     []string // labels: noisy host, plan digest, sample counts
	digest    string   // of every request plan the run built
	tracePath string   // span file of a traced run
}

func newReport(workload string, traced bool) *report {
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	return &report{workload: workload, specs: specs, values: map[string]float64{}}
}

// set records a metric. A run computes what its stages yield; the report
// keeps the metrics of its mode (end-to-end untraced, per-layer traced) for
// the result line and prints the rest as extras. A name in neither list, or
// set twice, is a programming error the tier-1 test catches.
func (r *report) set(name string, v float64) {
	if _, dup := r.values[name]; dup {
		r.problems = append(r.problems, "metric emitted twice: "+name)
	}
	if _, ok := unitOf(name); !ok {
		r.problems = append(r.problems, "undeclared metric emitted: "+name)
	}
	r.values[name] = v
}

// unitOf looks a metric up in both declared lists.
func unitOf(name string) (string, bool) {
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit, true
			}
		}
	}
	return "", false
}

func (r *report) note(format string, a ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, a...))
}

// fail records a failed correctness check: it counts in failed and makes
// the run exit non-zero.
func (r *report) fail(format string, a ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, a...))
	r.failed++
	r.attempted++
}

// count adds a traffic phase's outcome to attempted/failed.
func (r *report) count(st *runStats) {
	r.attempted += st.attempted
	r.failed += st.failed()
}

// validate checks the run emitted every metric its mode declares.
func (r *report) validate() {
	for _, m := range r.specs {
		if _, ok := r.values[m.Name]; !ok {
			r.problems = append(r.problems, "declared metric not emitted: "+m.Name)
		}
	}
	sort.Strings(r.problems)
}

func (r *report) correct() bool { return len(r.problems) == 0 }

func (r *report) result() result {
	out := result{Correct: r.correct(), Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, m := range r.specs {
		out.Metrics[m.Name] = metricValue{Value: r.values[m.Name], Unit: m.Unit}
	}
	return out
}

// print writes every metric by name with its unit, then notes and problems.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s\n", r.workload)
	for _, n := range r.notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
	for _, m := range r.specs {
		arrow := "↓"
		if m.Better == "higher" {
			arrow = "↑"
		}
		fmt.Fprintf(w, "  %-34s %16.6g %-6s %s\n", m.Name, r.values[m.Name], m.Unit, arrow)
	}
	inMode := map[string]bool{}
	for _, m := range r.specs {
		inMode[m.Name] = true
	}
	var extras []string
	for name := range r.values {
		if !inMode[name] {
			extras = append(extras, name)
		}
	}
	sort.Strings(extras)
	for _, name := range extras {
		unit, _ := unitOf(name)
		fmt.Fprintf(w, "  %-34s %16.6g %-6s (other mode's list)\n", name, r.values[name], unit)
	}
	fmt.Fprintf(w, "  attempted %d  failed %d  failed_frac %.6f  correct %v\n",
		r.attempted, r.failed, float64(r.failed)/float64(max(r.attempted, 1)), r.correct())
	for _, p := range r.problems {
		fmt.Fprintf(w, "  FAILED: %s\n", p)
	}
}

func (r *report) jsonLine() string {
	data, err := json.Marshal(r.result())
	if err != nil {
		panic(err) // result holds only strings, bools and finite floats
	}
	return string(data)
}
