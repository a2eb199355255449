package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// A/A mode: the same code measured N times. It answers the only question
// that matters before a bound is trusted — does this metric hold its bound
// against itself on this box?

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which is
// what the driver computes.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	at := func(j int) float64 {
		m := len(s)
		pos := float64(j) * float64(m+1) / 4 // 1-indexed cut point
		lo := int(math.Floor(pos))
		lo = min(max(lo, 1), m-1)
		frac := pos - float64(lo)
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	return at(1), at(3)
}

// spread is the relative dispersion of one metric over the A/A runs: the
// interquartile distance over the median from four runs up, the full range
// over the median below that.
func spread(values []float64) float64 {
	med := median(values)
	if med == 0 || len(values) < 2 {
		return 0
	}
	if len(values) < 4 {
		s := append([]float64(nil), values...)
		sort.Float64s(s)
		return (s[len(s)-1] - s[0]) / math.Abs(med)
	}
	q1, q3 := quartiles(values)
	return (q3 - q1) / math.Abs(med)
}

// runAA runs every named workload o.aa times and prints, per end-to-end
// metric, the median, the spread and the bound. It returns the exit code.
func runAA(o options, names []string) int {
	if o.trace {
		fatal("-aa measures end-to-end metrics; drop -trace")
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# A/A: %d runs per workload, seed %d, -seconds %g\n\n", o.aa, o.seed, o.seconds)
	fmt.Fprintf(&b, "Spread is (q3 − q1) ÷ median over the runs (range ÷ median below four runs).\n")
	fmt.Fprintf(&b, "A metric breaches when its spread exceeds its bound; `setup_s` is exempt, as in the driver.\n\n")
	breaches := 0
	for _, name := range names {
		samples := map[string][]float64{}
		for i := 0; i < o.aa; i++ {
			rep, err := runWorkload(o, name, o.seed, fullSizes)
			if err != nil {
				fatal("workload %s run %d: %v", name, i, err)
			}
			if !rep.correct() {
				rep.print(os.Stderr)
				fatal("workload %s run %d failed its correctness checks", name, i)
			}
			for _, m := range endToEnd {
				samples[m.Name] = append(samples[m.Name], rep.values[m.Name])
			}
			fmt.Fprintf(os.Stderr, "aa: %s run %d/%d done\n", name, i+1, o.aa)
		}
		fmt.Fprintf(&b, "## %s\n\n| metric | unit | median | spread | bound | verdict |\n|---|---|---:|---:|---:|---|\n", name)
		for _, m := range endToEnd {
			sp := spread(samples[m.Name])
			verdict := "ok"
			switch {
			case m.Name == "setup_s":
				verdict = "exempt"
			case sp > m.Bound:
				verdict = "BREACH"
				breaches++
			case sp > m.Bound/3:
				verdict = "ok (above a third of the bound)"
			}
			fmt.Fprintf(&b, "| `%s` | %s | %.6g | %.4f | %.2f | %s |\n", m.Name, m.Unit, median(samples[m.Name]), sp, m.Bound, verdict)
		}
		fmt.Fprintln(&b)
	}
	fmt.Print(b.String())
	if breaches > 0 {
		fmt.Fprintf(os.Stderr, "aa: %d metric/workload pairs breach their bound\n", breaches)
		return 1
	}
	return 0
}
