package loadgen

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"rdfcube/internal/bitvec"
	"rdfcube/internal/obsv"
)

// LoadReport is the serialized outcome of one load run — what cubeload
// prints and what its -json flag writes. It embeds the full PlanConfig and
// the plan digest, so a reader of two reports can tell whether they drove
// the same request sequence.
type LoadReport struct {
	Version int `json:"version"`
	// Environment provenance — informational.
	GoVersion  string `json:"goVersion"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CreatedAt  string `json:"createdAt"`
	Note       string `json:"note,omitempty"`

	// Config is the workload; PlanDigest proves two runs issued the same
	// request sequence.
	Config     PlanConfig `json:"config"`
	PlanDigest string     `json:"planDigest"`
	// Concurrency and RPS are execution parameters (not part of the plan
	// but part of what a comparison must hold fixed).
	Concurrency int     `json:"concurrency"`
	RPS         float64 `json:"rps,omitempty"`

	ElapsedSeconds float64 `json:"elapsedSeconds"`
	Sent           int64   `json:"sent"`
	Dropped        int64   `json:"dropped,omitempty"`
	Good           int64   `json:"good"`
	Shed           int64   `json:"shed"`
	Errors         int64   `json:"errors"`
	// Partial counts answers flagged "partial": true by a degraded
	// sharded gate; Retried counts polite-mode (-retry) re-sends.
	Partial int64 `json:"partial,omitempty"`
	Retried int64 `json:"retried,omitempty"`
	// GoodputRPS is successful responses per wall-clock second.
	GoodputRPS float64 `json:"goodputRps"`

	// Latency is the overall distribution (µs); PerOp splits it by kind.
	Latency obsv.QuantileSummary            `json:"latency"`
	PerOp   map[string]obsv.QuantileSummary `json:"perOp"`
}

// NewReport packages a run into the serializable report.
func NewReport(p *Plan, opts Options, stats *RunStats, note string) *LoadReport {
	rep := &LoadReport{
		Version:        1,
		GoVersion:      runtime.Version(),
		GOOS:           runtime.GOOS,
		GOARCH:         runtime.GOARCH,
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		CreatedAt:      time.Now().UTC().Format(time.RFC3339),
		Note:           note,
		Config:         p.Config,
		PlanDigest:     p.Digest,
		Concurrency:    opts.concurrency(),
		RPS:            opts.RPS,
		ElapsedSeconds: stats.Elapsed.Seconds(),
		Sent:           stats.Sent,
		Dropped:        stats.Dropped,
		Good:           stats.Good,
		Shed:           stats.Shed,
		Errors:         stats.Errors,
		Partial:        stats.Partial,
		Retried:        stats.Retried,
		Latency:        stats.Hist.Snapshot().Summary(),
		PerOp:          map[string]obsv.QuantileSummary{},
	}
	if stats.Elapsed > 0 {
		rep.GoodputRPS = float64(stats.Good) / stats.Elapsed.Seconds()
	}
	for kind, h := range stats.PerOp {
		rep.PerOp[kind] = h.Snapshot().Summary()
	}
	return rep
}

// Calibrate measures a fixed pure-CPU loop (1024 width-4096 bit-AND
// sweeps, the instruction mix of the kernels' subset test) and returns its
// minimum ns/op over a 100 ms window. The benchmark brackets each workload
// with two calls to tell a busy host from a slow program; nothing in this
// package reads it.
func Calibrate() float64 {
	v := bitvec.New(4096)
	u := bitvec.New(4096)
	for i := 0; i < 4096; i += 3 {
		v.Set(i)
		u.Set(i)
	}
	sink := false
	var best time.Duration
	deadline := time.Now().Add(100 * time.Millisecond)
	for iters := 0; iters < 3 || time.Now().Before(deadline); iters++ {
		t0 := time.Now()
		for k := 0; k < 1024; k++ {
			sink = v.AndEqualsRange(u, 0, 4096)
		}
		if d := time.Since(t0); best == 0 || d < best {
			best = d
		}
	}
	_ = sink
	return float64(best.Nanoseconds())
}

// WriteFile serializes the report as indented JSON.
func (r *LoadReport) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Text renders the report for terminal output.
func (r *LoadReport) Text() string {
	out := fmt.Sprintf("workload %s/%s n=%d seed=%d: %d requests, %d workers",
		r.Config.Gen, r.Config.Mix, r.Config.N, r.Config.Seed, r.Config.Requests, r.Concurrency)
	if r.RPS > 0 {
		out += fmt.Sprintf(" @ %.0f rps open-loop", r.RPS)
	}
	out += fmt.Sprintf("  (plan %s)\n", r.PlanDigest)
	out += fmt.Sprintf("sent %d  good %d  shed %d  errors %d  dropped %d  in %.2fs  → %.0f good/s\n",
		r.Sent, r.Good, r.Shed, r.Errors, r.Dropped, r.ElapsedSeconds, r.GoodputRPS)
	if r.Partial > 0 || r.Retried > 0 {
		out += fmt.Sprintf("partial answers %d  polite retries %d\n", r.Partial, r.Retried)
	}
	out += fmt.Sprintf("%-12s %8s %10s %10s %10s %10s %10s\n", "op", "count", "mean µs", "p50", "p90", "p99", "p999")
	row := func(name string, q obsv.QuantileSummary) string {
		return fmt.Sprintf("%-12s %8d %10.0f %10.0f %10.0f %10.0f %10.0f\n",
			name, q.Count, q.Mean, q.P50, q.P90, q.P99, q.P999)
	}
	out += row("all", r.Latency)
	kinds := make([]string, 0, len(r.PerOp))
	for kind := range r.PerOp {
		kinds = append(kinds, kind)
	}
	sort.Strings(kinds)
	for _, kind := range kinds {
		out += row(kind, r.PerOp[kind])
	}
	return out
}
