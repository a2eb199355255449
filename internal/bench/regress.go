package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"rdfcube/internal/bitvec"
	"rdfcube/internal/core"
	"rdfcube/internal/gen"
)

// This file is the performance-regression harness behind
// `cubebench -baseline-out` / `-compare`: it measures a fixed suite of
// micro- and macro-benchmarks (the inner subset-test loop, the three
// algorithms serial and parallel) into a BenchReport, serializes it as
// BENCH_*.json, and diffs a fresh run against a committed baseline with a
// calibration-normalized ns/op gate and a strict allocs/op gate.
//
// Wall-clock numbers are not portable across machines, so every report
// carries a "calibrate" entry — a fixed pure-CPU bit-AND loop — and
// Compare rescales the baseline's ns/op by the calibration ratio before
// applying the tolerance. Allocation counts ARE portable (they depend
// only on the code), so any allocs/op increase fails regardless of
// machine, and the subset-test loop must stay at exactly zero.

// BenchResult is one measured suite entry.
type BenchResult struct {
	// Name identifies the entry (stable across runs; Compare joins on it).
	Name string `json:"name"`
	// N is the observation count of the input (0 for micro-benchmarks).
	N int `json:"n,omitempty"`
	// NsPerOp is wall-clock nanoseconds per operation.
	NsPerOp float64 `json:"nsPerOp"`
	// AllocsPerOp and BytesPerOp are heap allocations per operation.
	AllocsPerOp int64 `json:"allocsPerOp"`
	BytesPerOp  int64 `json:"bytesPerOp"`
	// PairsPerSec is n·(n−1) ordered pairs divided by seconds per op —
	// the throughput unit of the paper's Figs. 7–9 (0 when not a pair
	// scan).
	PairsPerSec float64 `json:"pairsPerSec,omitempty"`
	// Recall is the clustering entries' overall recall against the
	// baseline truth on the same input (0 for exact algorithms).
	Recall float64 `json:"recall,omitempty"`
}

// BenchReport is the serialized form of one regression-suite run.
type BenchReport struct {
	// Version guards the schema.
	Version int `json:"version"`
	// Environment provenance — informational; Compare relies on the
	// calibration entry, not on matching hardware.
	GoVersion  string `json:"goVersion"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CreatedAt  string `json:"createdAt"`
	// Note documents measurement caveats (e.g. single-core container).
	Note    string        `json:"note,omitempty"`
	Results []BenchResult `json:"results"`
}

// RegressConfig parameterizes the suite. Zero values select defaults.
type RegressConfig struct {
	// SmallSize and MediumSize are the gen.RealWorld observation counts
	// (defaults 600 and 2400).
	SmallSize, MediumSize int
	// Seed pins the generator and clustering seeds (default 1).
	Seed int64
	// Workers is the pool size of the *-par entries (default 4). The
	// entry names embed it, so compare runs must use the same value as
	// the baseline file.
	Workers int
	// BenchTime is the minimum measuring time per entry (default 500ms).
	BenchTime time.Duration
	// Note is copied into the report.
	Note string
}

func (c RegressConfig) withDefaults() RegressConfig {
	if c.SmallSize == 0 {
		c.SmallSize = 600
	}
	if c.MediumSize == 0 {
		c.MediumSize = 2400
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.BenchTime == 0 {
		c.BenchTime = 500 * time.Millisecond
	}
	return c
}

// measure times fn until benchTime has elapsed (at least three
// iterations) and reports the MINIMUM single-iteration wall clock as
// ns/op: the minimum is the standard robust estimator for regression
// gating, immune to scheduler preemption, GC pauses and frequency-
// scaling spikes that inflate a mean (a too-fast measurement is
// physically impossible, a too-slow one is routine). Allocations are
// deterministic per op, so they are averaged over all iterations from
// the runtime's monotonic Mallocs/TotalAlloc counters — the same source
// testing.B uses. fn is run once untimed first so pools and caches are
// warm and the steady state is what gets measured.
func measure(name string, n int, benchTime time.Duration, fn func()) BenchResult {
	fn() // warm-up: fill sync.Pools, OM cache, counter maps
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	iters := 0
	var best time.Duration
	start := time.Now()
	for iters < 3 || time.Since(start) < benchTime {
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		if best == 0 || d < best {
			best = d
		}
		iters++
	}
	runtime.ReadMemStats(&after)
	res := BenchResult{
		Name:        name,
		N:           n,
		NsPerOp:     float64(best.Nanoseconds()),
		AllocsPerOp: int64((after.Mallocs - before.Mallocs) / uint64(iters)),
		BytesPerOp:  int64((after.TotalAlloc - before.TotalAlloc) / uint64(iters)),
	}
	if n > 1 && res.NsPerOp > 0 {
		res.PairsPerSec = float64(n) * float64(n-1) / (res.NsPerOp / 1e9)
	}
	return res
}

// calibrationEntry is the fixed pure-CPU workload that anchors
// cross-machine ns/op comparison: 1024 width-4096 AndEqualsRange sweeps
// per op, no allocation, no parallelism.
func calibrationEntry(benchTime time.Duration) BenchResult {
	v := bitvec.New(4096)
	u := bitvec.New(4096)
	for i := 0; i < 4096; i += 3 {
		v.Set(i)
		u.Set(i)
	}
	sink := false
	r := measure("calibrate", 0, benchTime, func() {
		for k := 0; k < 1024; k++ {
			sink = v.AndEqualsRange(u, 0, 4096)
		}
	})
	_ = sink
	return r
}

// calibrationParEntry is the parallel twin of the calibration loop: the
// SAME fixed workload run once per worker, concurrently, on private
// vectors. On a machine with >= workers free cores the wall clock matches
// the serial calibrate entry; on a starved machine the goroutines time-
// slice and the wall clock approaches workers x serial. The ratio is
// therefore a direct measurement of how much parallel speedup the machine
// can physically deliver — the anchor that lets the scaling gate demand
// real speedup on multicore CI without failing spuriously on small
// runners (see parallelCapacity).
func calibrationParEntry(workers int, benchTime time.Duration) BenchResult {
	vs := make([]*bitvec.Vector, workers)
	us := make([]*bitvec.Vector, workers)
	sinks := make([]bool, workers)
	for w := 0; w < workers; w++ {
		vs[w] = bitvec.New(4096)
		us[w] = bitvec.New(4096)
		for i := 0; i < 4096; i += 3 {
			vs[w].Set(i)
			us[w].Set(i)
		}
	}
	return measure(fmt.Sprintf("calibrate-par%d", workers), 0, benchTime, func() {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for k := 0; k < 1024; k++ {
					sinks[w] = vs[w].AndEqualsRange(us[w], 0, 4096)
				}
			}(w)
		}
		wg.Wait()
	})
}

// RunRegression measures the full suite and returns the report. The suite:
//
//	calibrate          fixed bit-AND loop (cross-machine anchor)
//	calibrate-parN     the same loop once per worker, concurrently —
//	                   measures the machine's parallel capacity for the
//	                   scaling gate
//	subset-loop        the §3.1 inner subset test over real OM rows —
//	                   the hot path; must stay at 0 allocs/op
//	baseline/*         serial §3.1 scan, small and medium inputs
//	baseline-parN/*    the same with Options.Workers = N
//	clustering/medium  serial §3.2 (pinned seed), with measured recall
//	clustering-parN/…  the same with Options.Workers = N
//	cubemasking/medium serial §3.3
//	cubemasking-parN/… AlgorithmParallel with Options.Workers = N
func RunRegression(cfg RegressConfig) (*BenchReport, error) {
	cfg = cfg.withDefaults()
	rep := &BenchReport{
		Version:    1,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CreatedAt:  time.Now().UTC().Format(time.RFC3339),
		Note:       cfg.Note,
	}

	spaces := map[int]*core.Space{}
	spaceFor := func(n int) (*core.Space, error) {
		if s, ok := spaces[n]; ok {
			return s, nil
		}
		s, err := core.NewSpace(gen.RealWorld(gen.RealWorldConfig{TotalObs: n, Seed: cfg.Seed}))
		if err != nil {
			return nil, err
		}
		core.BuildOccurrenceMatrix(s) // build (and cache) outside the timed region
		spaces[n] = s
		return s, nil
	}

	rep.Results = append(rep.Results, calibrationEntry(cfg.BenchTime))
	rep.Results = append(rep.Results, calibrationParEntry(cfg.Workers, cfg.BenchTime))

	// subset-loop: the per-dimension CM_i bit-AND subset test over the
	// first rows of the medium space's occurrence matrix — exactly the
	// instruction mix of the baseline's inner loop, no sink, no
	// bookkeeping. Zero allocations is a hard invariant.
	ms, err := spaceFor(cfg.MediumSize)
	if err != nil {
		return nil, err
	}
	om := core.BuildOccurrenceMatrix(ms)
	rows := om.Rows
	if len(rows) > 256 {
		rows = rows[:256]
	}
	width := om.NumCols()
	sink := false
	rep.Results = append(rep.Results, measure("subset-loop", 0, cfg.BenchTime, func() {
		for i := range rows {
			for j := range rows {
				sink = rows[i].AndEqualsRange(rows[j], 0, width)
			}
		}
	}))
	_ = sink

	runAlg := func(n int, alg core.Algorithm, workers int) func() {
		s := spaces[n]
		return func() {
			opts := core.Options{Tasks: core.TaskAll, Workers: workers}
			opts.Clustering.Config.Seed = cfg.Seed
			cnt := &core.Counter{}
			if err := core.Compute(s, alg, opts, cnt); err != nil {
				panic(err) // pinned inputs: cannot fail after the warm-up ran once
			}
		}
	}

	if _, err := spaceFor(cfg.SmallSize); err != nil {
		return nil, err
	}
	par := func(base string) string { return fmt.Sprintf("%s-par%d", base, cfg.Workers) }
	suite := []struct {
		name    string
		n       int
		alg     core.Algorithm
		workers int
	}{
		{"baseline/small", cfg.SmallSize, core.AlgorithmBaseline, 0},
		{"baseline/medium", cfg.MediumSize, core.AlgorithmBaseline, 0},
		{par("baseline") + "/small", cfg.SmallSize, core.AlgorithmBaseline, cfg.Workers},
		{par("baseline") + "/medium", cfg.MediumSize, core.AlgorithmBaseline, cfg.Workers},
		{"clustering/medium", cfg.MediumSize, core.AlgorithmClustering, 0},
		{par("clustering") + "/medium", cfg.MediumSize, core.AlgorithmClustering, cfg.Workers},
		{"cubemasking/medium", cfg.MediumSize, core.AlgorithmCubeMasking, 0},
		{par("cubemasking") + "/medium", cfg.MediumSize, core.AlgorithmParallel, cfg.Workers},
	}
	for _, e := range suite {
		rep.Results = append(rep.Results, measure(e.name, e.n, cfg.BenchTime, runAlg(e.n, e.alg, e.workers)))
	}

	// Clustering recall on the medium input (untimed): the lossy method's
	// quality metric rides along so a perf "win" that comes from dropping
	// pairs is caught by the recall gate.
	truth := core.NewResult()
	if err := core.Compute(ms, core.AlgorithmBaseline, core.Options{Tasks: core.TaskAll}, truth); err != nil {
		return nil, err
	}
	truth.Sort()
	cres := core.NewResult()
	copts := core.Options{Tasks: core.TaskAll}
	copts.Clustering.Config.Seed = cfg.Seed
	if err := core.Compute(ms, core.AlgorithmClustering, copts, cres); err != nil {
		return nil, err
	}
	cres.Sort()
	_, _, _, overall := core.Recall(truth, cres)
	for i := range rep.Results {
		switch rep.Results[i].Name {
		case "clustering/medium", par("clustering") + "/medium":
			rep.Results[i].Recall = overall
		}
	}
	return rep, nil
}

// WriteFile serializes the report as indented JSON.
func (r *BenchReport) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadBenchReport loads a report written by WriteFile.
func ReadBenchReport(path string) (*BenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r BenchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	if r.Version != 1 {
		return nil, fmt.Errorf("bench: %s: unsupported report version %d", path, r.Version)
	}
	return &r, nil
}

// find returns the entry with the given name, if present.
func (r *BenchReport) find(name string) (BenchResult, bool) {
	for _, e := range r.Results {
		if e.Name == name {
			return e, true
		}
	}
	return BenchResult{}, false
}

// Tolerance bounds how much a fresh run may degrade before Compare calls
// it a regression. Zero values select defaults; negative values disable
// the optional gates.
type Tolerance struct {
	// NsFrac is the allowed fractional ns/op increase after calibration
	// normalization (default 0.15 — the CI gate's 15%).
	NsFrac float64
	// RecallDrop is the allowed absolute recall decrease (default 0.02).
	RecallDrop float64
	// MinScaling is the pairs/sec ratio the parallel medium entries must
	// reach over their serial counterparts at full parallel capacity
	// (default 2.5 for par4; negative disables). The floor is normalized
	// by the CURRENT machine's measured capacity — see parallelCapacity —
	// so a single-core runner is only asked not to fall off a cliff while
	// a 4-core runner must deliver the real 2.5x.
	MinScaling float64
	// MaxParBytes caps bytes/op of the parallel algorithm entries
	// (default 1 MiB; negative disables). Unlike wall clock, allocation
	// traffic is machine-independent: this is the hard backstop against
	// the tape layer regressing to buffering whole runs in memory again.
	MaxParBytes int64
}

func (t Tolerance) withDefaults() Tolerance {
	if t.NsFrac == 0 {
		t.NsFrac = 0.15
	}
	if t.RecallDrop == 0 {
		t.RecallDrop = 0.02
	}
	if t.MinScaling == 0 {
		t.MinScaling = 2.5
	}
	if t.MaxParBytes == 0 {
		t.MaxParBytes = 1 << 20
	}
	return t
}

// splitParName decomposes a parallel algorithm entry name of the form
// "base-parN/size" (e.g. "baseline-par4/medium"). ok is false for every
// other shape, including the sizeless "calibrate-parN" entry.
func splitParName(name string) (base string, workers int, size string, ok bool) {
	slash := strings.IndexByte(name, '/')
	par := strings.LastIndex(name, "-par")
	if slash < 0 || par < 0 || par+4 >= slash {
		return "", 0, "", false
	}
	w, err := strconv.Atoi(name[par+4 : slash])
	if err != nil || w <= 0 {
		return "", 0, "", false
	}
	return name[:par], w, name[slash+1:], true
}

// parallelCapacity estimates how many of the requested workers the
// current machine can actually run concurrently, from the two calibration
// entries: workers x calibrate / calibrate-parN. A machine with >= N free
// cores measures ~N; a single-core machine measures ~1 (the goroutines
// time-slice). Clamped to [1, workers]; 0 means the run predates the
// calibrate-par entry and the scaling gate cannot apply.
func parallelCapacity(cur *BenchReport, workers int) float64 {
	c, ok := cur.find("calibrate")
	cp, okPar := cur.find(fmt.Sprintf("calibrate-par%d", workers))
	if !ok || !okPar || c.NsPerOp <= 0 || cp.NsPerOp <= 0 {
		return 0
	}
	capacity := float64(workers) * c.NsPerOp / cp.NsPerOp
	return min(max(capacity, 1), float64(workers))
}

// scalingGated lists the serial/parallel entry families whose medium
// inputs must show parallel speedup. Clustering is excluded: its shards
// are whole clusters, so its achievable scaling depends on the (input-
// determined) cluster size distribution, not on the engine.
var scalingGated = map[string]bool{"baseline": true, "cubemasking": true}

// Compare diffs a fresh run against a committed baseline and returns one
// human-readable line per regression (empty means pass):
//
//   - ns/op: cur > base · (curCalibrate/baseCalibrate) · (1+NsFrac).
//     The calibration ratio cancels machine-speed differences, so a
//     baseline recorded on other hardware still gates meaningfully.
//   - allocs/op: any increase fails for serial entries — their
//     allocation counts are machine-independent, so there is no
//     tolerance to give. Parallel (-par) entries get a 5%+8 scheduling-
//     jitter allowance.
//   - subset-loop: must be exactly 0 allocs/op in the current run, even
//     if the baseline predates the entry.
//   - recall: may not drop by more than RecallDrop.
//   - every baseline entry must still exist.
//   - scaling: the gated parallel medium entries (baseline, cubemasking)
//     must reach MinScaling x their serial pairs/sec at full parallel
//     capacity, normalized by the current machine's measured capacity
//     (the calibrate-parN / calibrate ratio).
//   - parallel memory: every X-parN/size entry must stay under
//     MaxParBytes bytes/op — an absolute cap, not a diff.
func Compare(base, cur *BenchReport, tol Tolerance) []string {
	tol = tol.withDefaults()
	scale := 1.0
	if bc, ok := base.find("calibrate"); ok {
		if cc, ok2 := cur.find("calibrate"); ok2 && bc.NsPerOp > 0 {
			scale = cc.NsPerOp / bc.NsPerOp
		}
	}
	var regs []string
	for _, b := range base.Results {
		c, ok := cur.find(b.Name)
		if !ok {
			regs = append(regs, fmt.Sprintf("%s: entry missing from current run", b.Name))
			continue
		}
		if b.Name != "calibrate" {
			limit := b.NsPerOp * scale * (1 + tol.NsFrac)
			if c.NsPerOp > limit {
				regs = append(regs, fmt.Sprintf(
					"%s: %.0f ns/op exceeds %.0f (baseline %.0f × calibration %.2f × %+.0f%%)",
					b.Name, c.NsPerOp, limit, b.NsPerOp, scale, tol.NsFrac*100))
			}
		}
		// Allocation counts are near-deterministic, but not exactly: GC
		// timing decides how often the sync.Pools refill and map growth
		// inside the per-op lattice build wobbles by a malloc or two. The
		// serial allowance (+2 + 0.2%) absorbs that noise while still
		// catching what the gate exists for — a per-pair allocation costs
		// thousands, not two. Parallel runs additionally allocate goroutine
		// stacks and channel buffers whose count depends on scheduling, so
		// the -par entries get a larger jitter allowance (5% + 8).
		allowed := b.AllocsPerOp + 2 + b.AllocsPerOp/500
		if strings.Contains(b.Name, "-par") {
			allowed = b.AllocsPerOp + b.AllocsPerOp/20 + 8
		}
		if c.AllocsPerOp > allowed {
			regs = append(regs, fmt.Sprintf("%s: %d allocs/op, baseline allows %d (recorded %d)",
				b.Name, c.AllocsPerOp, allowed, b.AllocsPerOp))
		}
		if b.Recall > 0 && c.Recall < b.Recall-tol.RecallDrop {
			regs = append(regs, fmt.Sprintf("%s: recall %.4f dropped more than %.2f below baseline %.4f",
				b.Name, c.Recall, tol.RecallDrop, b.Recall))
		}
	}
	if c, ok := cur.find("subset-loop"); ok && c.AllocsPerOp != 0 {
		regs = append(regs, fmt.Sprintf("subset-loop: %d allocs/op, must be 0 (hot path regressed)", c.AllocsPerOp))
	}

	// Scaling and parallel-memory gates run on the CURRENT run only (they
	// are absolute properties of the code on this machine, not diffs), so
	// they bite even when the committed baseline predates the entries.
	for _, e := range cur.Results {
		basename, workers, size, isPar := splitParName(e.Name)
		if !isPar {
			continue
		}
		if tol.MaxParBytes > 0 && e.BytesPerOp > tol.MaxParBytes {
			regs = append(regs, fmt.Sprintf("%s: %d B/op exceeds the parallel cap %d (tape layer buffering whole runs?)",
				e.Name, e.BytesPerOp, tol.MaxParBytes))
		}
		if tol.MinScaling <= 0 || size != "medium" || !scalingGated[basename] {
			continue
		}
		serial, ok := cur.find(basename + "/" + size)
		if !ok || serial.PairsPerSec <= 0 || e.PairsPerSec <= 0 {
			continue
		}
		capacity := parallelCapacity(cur, workers)
		if capacity == 0 {
			continue // old-format run without calibrate-parN
		}
		floor := tol.MinScaling * capacity / float64(workers)
		scaling := e.PairsPerSec / serial.PairsPerSec
		if scaling < floor {
			regs = append(regs, fmt.Sprintf(
				"%s: %.2fx pairs/sec over %s/%s, below the %.2fx floor (%.1fx at full capacity, machine capacity %.2f/%d workers)",
				e.Name, scaling, basename, size, floor, tol.MinScaling, capacity, workers))
		}
	}
	return regs
}

// CheckProcs rejects comparing runs recorded at different GOMAXPROCS. The
// calibrate entry normalizes clock speed, and parallelCapacity normalizes
// how many cores the scheduler delivers — but the -par entries' WORKER
// COUNTS are baked into the entry names at record time, so a baseline
// recorded under a different GOMAXPROCS measured a genuinely different
// configuration and the ns/op diffs would gate noise, not regressions.
func CheckProcs(base, cur *BenchReport) error {
	if base.GOMAXPROCS != cur.GOMAXPROCS {
		return fmt.Errorf("bench: baseline recorded at GOMAXPROCS=%d but the current run is at GOMAXPROCS=%d; parallel entries are not comparable (re-record the baseline at this setting, or override explicitly)",
			base.GOMAXPROCS, cur.GOMAXPROCS)
	}
	return nil
}

// Text renders the report as an aligned table for terminal output.
func (r *BenchReport) Text() string {
	out := fmt.Sprintf("%-26s %12s %10s %12s %14s %8s\n",
		"entry", "ns/op", "allocs/op", "B/op", "pairs/sec", "recall")
	for _, e := range r.Results {
		pairs, recall := "-", "-"
		if e.PairsPerSec > 0 {
			pairs = fmt.Sprintf("%.3g", e.PairsPerSec)
		}
		if e.Recall > 0 {
			recall = fmt.Sprintf("%.4f", e.Recall)
		}
		out += fmt.Sprintf("%-26s %12.0f %10d %12d %14s %8s\n",
			e.Name, e.NsPerOp, e.AllocsPerOp, e.BytesPerOp, pairs, recall)
	}
	return out
}
