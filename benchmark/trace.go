package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Harness-side tracing. Spans are recorded in the benchmark's own files,
// around each call into a layer; nothing is added to the program under
// test. A nil *tracer records nothing, so the untraced run pays one nil
// check per call site.

// span is one timed call: name, start, end (ns since the tracer started),
// the span that caused it (0 = root) and the client request it belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	reqs  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// request mints a client-request identifier shared by the request's spans.
func (t *tracer) request() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	return t.reqs
}

// start opens a span and returns its id (0 from a nil tracer).
func (t *tracer) start(name string, parent, req int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: now, End: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, parent int, fn func()) time.Duration {
	id := t.start(name, parent, 0)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	t.end(id)
	return d
}

// selfTime is one row of the per-layer table.
type selfTime struct {
	Name  string
	Count int
	Total time.Duration // summed span durations
	Self  time.Duration // summed (duration − interval covered by children)
	selfs []time.Duration
}

// selfTimes aggregates spans by name: a span's self time is its duration
// minus the part of its interval that its child spans cover.
func (t *tracer) selfTimes() []selfTime {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	byName := map[string]*selfTime{}
	for _, s := range spans {
		covered := int64(0)
		iv := children[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		cur := s.Start
		for _, c := range iv {
			lo, hi := max(c[0], cur), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		row := byName[s.Name]
		if row == nil {
			row = &selfTime{Name: s.Name}
			byName[s.Name] = row
		}
		row.Count++
		row.Total += time.Duration(s.End - s.Start)
		self := time.Duration(s.End - s.Start - covered)
		row.Self += self
		row.selfs = append(row.selfs, self)
	}
	rows := make([]selfTime, 0, len(byName))
	for _, r := range byName {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Self > rows[j].Self })
	return rows
}

// printTable writes the per-layer self-time table.
func (t *tracer) printTable(w io.Writer) {
	rows := t.selfTimes()
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "  %-32s %8s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms", "self_p50_us")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-32s %8d %12.3f %12.3f %12.1f\n", r.Name, r.Count,
			float64(r.Total)/1e6, float64(r.Self)/1e6, summarize(r.selfs).P50)
	}
}

// writeFile dumps every span as JSON.
func (t *tracer) writeFile(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
