package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"rdfcube/internal/core"
	"rdfcube/internal/rdf"
	"rdfcube/internal/wal"
)

// benchmarkJSON renders the declared surface in the driver's schema — the
// content of BENCHMARK.json.
func benchmarkJSON(runSeconds int) ([]byte, error) {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layered struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	out := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []bounded  `json:"end_to_end"`
		PerLayer   []layered  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadSpecs {
		out.Workloads = append(out.Workloads, workload(w))
	}
	for _, m := range endToEnd {
		out.EndToEnd = append(out.EndToEnd, bounded(m))
	}
	for _, m := range perLayer {
		out.PerLayer = append(out.PerLayer, layered{m.Name, m.Unit, m.Better})
	}
	return json.MarshalIndent(out, "", "  ")
}

// TestBenchmarkFileMatchesSpec keeps BENCHMARK.json byte for byte what
// spec.go declares, and the declaration inside the driver's limits.
func TestBenchmarkFileMatchesSpec(t *testing.T) {
	want, err := benchmarkJSON(refSeconds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, append(want, '\n')) {
		t.Errorf("BENCHMARK.json differs from spec.go; it should read:\n%s", want)
	}
	if len(want) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(want))
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("bad name %q", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloadSpecs); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range workloadSpecs {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	setup := false
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		check(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("bad unit %q of %s", m.Unit, m.Name)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
}

// TestTraceFlagForms: -trace stands bare, takes an attached value, or takes
// the driver's detached one.
func TestTraceFlagForms(t *testing.T) {
	for in, want := range map[string]string{
		"-trace":                     "-trace=1",
		"--trace 0 --seed 3":         "-trace=0 --seed 3",
		"--workload read --trace 1":  "--workload read -trace=1",
		"-trace -seed 3":             "-trace=1 -seed 3",
		"-trace=0 -workload batch":   "-trace=0 -workload batch",
		"--seed 2 --trace false -aa": "--seed 2 -trace=false -aa",
	} {
		if got := strings.Join(normalizeTrace(strings.Fields(in)), " "); got != want {
			t.Errorf("normalizeTrace(%q) = %q, want %q", in, got, want)
		}
	}
}

func tinyOptions(t *testing.T, traced bool) options {
	dir := t.TempDir()
	return options{seconds: 1, trace: traced, workdir: filepath.Join(dir, "work"), outdir: filepath.Join(dir, "out")}
}

// TestEveryDeclaredMetricIsEmitted runs every workload at tiny sizes in
// both modes: each declared (metric, workload) pairing is emitted exactly
// once, nothing undeclared is, and every correctness check passes.
func TestEveryDeclaredMetricIsEmitted(t *testing.T) {
	// One process's worth of shared probe results, as -workload all has:
	// read reports batch's probes of their common corpus again.
	probed := map[string]map[string]float64{}
	for _, w := range workloadSpecs {
		for _, traced := range []bool{false, true} {
			o := tinyOptions(t, traced)
			o.probed = probed
			rep, err := runWorkload(o, w.Name, 7, tinySizes)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if reused := strings.Contains(strings.Join(rep.notes, "\n"), "earlier run"); traced && reused != (w.Name == "read" || w.Name == "ingest") {
				t.Errorf("%s: layer probes reused = %v", w.Name, reused)
			}
			for _, p := range rep.problems {
				t.Errorf("%s traced=%v: %s", w.Name, traced, p)
			}
			res := rep.result()
			if len(res.Metrics) != len(rep.specs) {
				t.Errorf("%s traced=%v: result line has %d metrics, want %d", w.Name, traced, len(res.Metrics), len(rep.specs))
			}
			if !traced {
				for _, m := range endToEnd {
					if v := res.Metrics[m.Name].Value; v <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, m.Name, v)
					}
				}
			}
			if res.Attempted < 1 || res.Failed != 0 || !res.Correct {
				t.Errorf("%s traced=%v: attempted %d failed %d correct %v", w.Name, traced, res.Attempted, res.Failed, res.Correct)
			}
			if traced {
				if _, err := os.Stat(rep.tracePath); err != nil {
					t.Errorf("%s: span file: %v", w.Name, err)
				}
			}
		}
	}
}

// TestRoundsAndHostFactor: -seconds scales the number of rounds, every
// round contributes one value to a stage metric, and the host factor comes
// out of times and goes into rates while sizes stay as they are.
func TestRoundsAndHostFactor(t *testing.T) {
	o := tinyOptions(t, false)
	o.seconds = 3
	rep, err := runWorkload(o, "ingest", 5, tinySizes)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.problems {
		t.Error(p)
	}
	if notes := strings.Join(rep.notes, "\n"); !strings.Contains(notes, "3 rounds") || !strings.Contains(notes, "median of 3 values") {
		t.Errorf("-seconds 3 at tiny sizes did not make 3 rounds:\n%s", notes)
	}
	if f := rep.values["host.mem_factor"]; f <= 0 {
		t.Errorf("host.mem_factor = %v", f)
	}

	round := &samples{
		setup: []float64{2}, checkpoint: []float64{4}, recover: []float64{6},
		pairs: []float64{10}, goodput: []float64{20}, replay: []float64{30},
		snapPerObs: []float64{7}, heapMB: []float64{9},
		related: []time.Duration{8 * time.Microsecond}, inserts: []time.Duration{16 * time.Microsecond},
	}
	var sm samples
	sm.add(round, 2)
	if sm.setup[0] != 1 || sm.checkpoint[0] != 2 || sm.recover[0] != 3 || sm.related[0] != 4*time.Microsecond || sm.inserts[0] != 8*time.Microsecond {
		t.Errorf("times not divided by the factor: %+v", sm)
	}
	if sm.pairs[0] != 20 || sm.goodput[0] != 40 || sm.replay[0] != 60 {
		t.Errorf("rates not multiplied by the factor: %+v", sm)
	}
	if sm.snapPerObs[0] != 7 || sm.heapMB[0] != 9 {
		t.Errorf("sizes changed: %+v", sm)
	}
}

// TestPlanDigestFollowsSeed: the same seed gives the same inputs, another
// seed gives others.
func TestPlanDigestFollowsSeed(t *testing.T) {
	for _, w := range []string{"read", "topology"} {
		a, err := runWorkload(tinyOptions(t, false), w, 3, tinySizes)
		if err != nil {
			t.Fatal(err)
		}
		b, err := runWorkload(tinyOptions(t, false), w, 3, tinySizes)
		if err != nil {
			t.Fatal(err)
		}
		c, err := runWorkload(tinyOptions(t, false), w, 4, tinySizes)
		if err != nil {
			t.Fatal(err)
		}
		if a.digest == "" || a.digest != b.digest {
			t.Errorf("%s: seed 3 gave digests %q and %q", w, a.digest, b.digest)
		}
		if a.digest == c.digest {
			t.Errorf("%s: seeds 3 and 4 gave the same digest %q", w, a.digest)
		}
	}
}

// TestChecksTripOnCorruptedAnswers hands every correctness check a
// deliberately wrong answer.
func TestChecksTripOnCorruptedAnswers(t *testing.T) {
	if err := checkCounts("x", counts{1, 2, 3}, counts{1, 2, 4}); err == nil {
		t.Error("checkCounts accepted differing counts")
	}

	truth := core.NewResult()
	truth.Full(0, 1)
	sink := newSubsetSink(4, truth)
	sink.Full(0, 1)
	if sink.found != 1 || sink.invented != 0 {
		t.Errorf("subsetSink on a true pair: found %d invented %d", sink.found, sink.invented)
	}
	sink.Partial(2, 3, 0.5)
	sink.Full(1, 0)
	if sink.invented != 2 {
		t.Errorf("subsetSink missed invented pairs: %d", sink.invented)
	}

	res := core.NewResult()
	res.Full(0, 1)
	res.Partial(0, 2, 0.5)
	res.Compl(3, 0)
	want := fanoutsOf(res, []int{0})[0]
	good := []byte(`{"contains":[{}],"containedBy":[],"partiallyContains":[{}],"partiallyContainedBy":[],"complements":[{}]}`)
	if err := checkFanout(0, good, want); err != nil {
		t.Errorf("checkFanout rejected a right answer: %v", err)
	}
	bad := []byte(`{"contains":[],"containedBy":[],"partiallyContains":[{}],"partiallyContainedBy":[],"complements":[{}]}`)
	if err := checkFanout(0, bad, want); err == nil {
		t.Error("checkFanout accepted an answer with a neighbour dropped")
	}
	if err := checkFanout(0, []byte(`{"contains":`), want); err == nil {
		t.Error("checkFanout accepted a truncated answer")
	}

	recs := []wal.Record{{URI: rdf.NewIRI("http://example.org/a")}}
	if missing := missingFromWAL([]string{"http://example.org/a"}, recs); len(missing) != 0 {
		t.Errorf("missingFromWAL lost a logged URI: %v", missing)
	}
	if missing := missingFromWAL([]string{"http://example.org/a", "http://example.org/b"}, recs); len(missing) != 1 {
		t.Errorf("missingFromWAL missed an unlogged ack: %v", missing)
	}

	if err := checkSameBytes("x", []byte(`{"uri":"a"}`), []byte(`{"uri":"b"}`)); err == nil {
		t.Error("checkSameBytes accepted differing answers")
	}

	b, err := buildState(realWorld(60, 1), 1, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := persist(dir, b, nil, 0); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(snapPath(dir) + ".000001")
	if err != nil {
		t.Fatal(err)
	}
	if err := checkReencode(data); err != nil {
		t.Errorf("checkReencode rejected an intact snapshot: %v", err)
	}
	data[len(data)/2] ^= 0xff
	if err := checkReencode(data); err == nil {
		t.Error("checkReencode accepted a corrupted snapshot")
	}
}

// durations returns lo..hi microseconds, one sample each.
func durations(lo, hi int) []time.Duration {
	var ds []time.Duration
	for i := lo; i <= hi; i++ {
		ds = append(ds, time.Duration(i)*time.Microsecond)
	}
	return ds
}

func TestQuantilesAndSpread(t *testing.T) {
	// Python: statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	s := summarize(durations(1, 100))
	if s.P50 != 50 || s.P99 != 99 || s.TailPct != 90 || s.Tail != 90 {
		t.Errorf("summarize(1..100µs) = %+v", s)
	}
}
