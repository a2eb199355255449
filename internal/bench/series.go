// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation section (§4) — the timing series of
// Fig. 5(a–c), the clustering recall of Fig. 5(d), the log-log scalability
// of Fig. 5(e), the cube-ratio curve of Fig. 5(f) and the children-
// prefetching ablation of Fig. 5(g) — over the Table-4 replica and the
// §4.2 synthetic workloads, and formats them as the rows/series the paper
// reports. It is the figure runners and nothing else: it compares no run
// with an earlier one (that is BENCHMARK.json and benchmark/).
package bench

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"
)

// Measurement is one data point of a timing figure.
type Measurement struct {
	// Figure tags the experiment (e.g. "5a").
	Figure string `json:"figure"`
	// Approach is the algorithm or comparator name.
	Approach string `json:"approach"`
	// Size is the observation count of the input.
	Size int `json:"size"`
	// Duration is the measured wall-clock time.
	Duration time.Duration `json:"durationNs"`
	// TimedOut marks runs aborted at the configured timeout (rendered
	// like the paper's time-out entries).
	TimedOut bool `json:"timedOut,omitempty"`
	// OOM marks runs skipped because their projected memory exceeds the
	// configured budget (the paper's o/m entries).
	OOM bool `json:"oom,omitempty"`
	// Projected marks analytically extrapolated points (the paper
	// projects the baseline's 2.5 M point from its quadratic fit).
	Projected bool `json:"projected,omitempty"`
	// Full, Partial, Compl are the relationship counts found (0 when not
	// applicable).
	Full    int `json:"full"`
	Partial int `json:"partial"`
	Compl   int `json:"compl"`
	// Extra carries figure-specific values (e.g. recall, cube counts).
	Extra map[string]float64 `json:"extra,omitempty"`
	// Counters is the instrumentation snapshot of the run (work performed:
	// observation/cube pairs compared, pruned pairs, bit-AND tests, …), so
	// every figure reports work alongside wall-clock. Nil for comparator
	// and projected rows.
	Counters map[string]int64 `json:"counters,omitempty"`
}

// Cell renders the duration column like the paper's plots: a time, or the
// time-out / out-of-memory / projection markers.
func (m Measurement) Cell() string {
	switch {
	case m.OOM:
		return "o/m"
	case m.TimedOut:
		return "timeout"
	case m.Projected:
		return formatDuration(m.Duration) + "*"
	default:
		return formatDuration(m.Duration)
	}
}

func formatDuration(d time.Duration) string {
	switch {
	case d >= time.Hour:
		return fmt.Sprintf("%.2fh", d.Hours())
	case d >= time.Minute:
		return fmt.Sprintf("%.2fm", d.Minutes())
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// Series is an ordered collection of measurements.
type Series []Measurement

// Table renders the series as an aligned text table with one row per input
// size and one column per approach — the shape of the paper's figures.
func (s Series) Table(title string) string {
	sizes, approaches := s.axes()
	byKey := map[string]Measurement{}
	for _, m := range s {
		byKey[key(m.Approach, m.Size)] = m
	}
	var b strings.Builder
	b.WriteString(title)
	b.WriteByte('\n')
	w := make([]int, len(approaches)+1)
	w[0] = len("observations")
	rows := make([][]string, 0, len(sizes)+1)
	head := append([]string{"observations"}, approaches...)
	rows = append(rows, head)
	for _, size := range sizes {
		row := []string{fmt.Sprintf("%d", size)}
		for _, a := range approaches {
			if m, ok := byKey[key(a, size)]; ok {
				row = append(row, m.Cell())
			} else {
				row = append(row, "-")
			}
		}
		rows = append(rows, row)
	}
	for _, row := range rows {
		for i, c := range row {
			if len(c) > w[i] {
				w[i] = len(c)
			}
		}
	}
	for _, row := range rows {
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(pad(c, w[i]))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the series as comma-separated rows with a header. Counter
// snapshots become one column per counter name (union over the series, in
// sorted order), so plots can put comparisons-performed next to durations;
// per-worker breakdown counters are elided to keep the width bounded.
func (s Series) CSV() string {
	var b strings.Builder
	b.WriteString("figure,approach,size,seconds,status,full,partial,compl")
	extraKeys := s.extraKeys()
	for _, k := range extraKeys {
		b.WriteByte(',')
		b.WriteString(k)
	}
	counterKeys := s.counterKeys()
	for _, k := range counterKeys {
		b.WriteByte(',')
		b.WriteString(k)
	}
	b.WriteByte('\n')
	for _, m := range s {
		status := "ok"
		switch {
		case m.OOM:
			status = "oom"
		case m.TimedOut:
			status = "timeout"
		case m.Projected:
			status = "projected"
		}
		fmt.Fprintf(&b, "%s,%s,%d,%.6f,%s,%d,%d,%d",
			m.Figure, m.Approach, m.Size, m.Duration.Seconds(), status, m.Full, m.Partial, m.Compl)
		for _, k := range extraKeys {
			fmt.Fprintf(&b, ",%g", m.Extra[k])
		}
		for _, k := range counterKeys {
			fmt.Fprintf(&b, ",%d", m.Counters[k])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// JSON renders the series as an indented JSON array, counter snapshots
// included in full (per-worker counters too).
func (s Series) JSON() (string, error) {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return "", err
	}
	return string(data) + "\n", nil
}

// counterKeys returns the sorted union of counter names over the series,
// skipping the unbounded per-worker breakdown.
func (s Series) counterKeys() []string {
	set := map[string]bool{}
	for _, m := range s {
		for k := range m.Counters {
			if strings.HasPrefix(k, "parallel.worker.") {
				continue
			}
			set[k] = true
		}
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (s Series) axes() (sizes []int, approaches []string) {
	sizeSet := map[int]bool{}
	apprSet := map[string]bool{}
	for _, m := range s {
		if !sizeSet[m.Size] {
			sizeSet[m.Size] = true
			sizes = append(sizes, m.Size)
		}
		if !apprSet[m.Approach] {
			apprSet[m.Approach] = true
			approaches = append(approaches, m.Approach)
		}
	}
	sort.Ints(sizes)
	return sizes, approaches
}

func (s Series) extraKeys() []string {
	set := map[string]bool{}
	for _, m := range s {
		for k := range m.Extra {
			set[k] = true
		}
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func key(approach string, size int) string { return fmt.Sprintf("%s|%d", approach, size) }

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}
