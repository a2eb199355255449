package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rdfcube/internal/faultfs"
	"rdfcube/internal/obsv"
)

// tracesResponse mirrors the /debug/traces payload.
type tracesResponse struct {
	Capacity int      `json:"capacity"`
	Recorded int64    `json:"recorded"`
	Traces   []*Trace `json:"traces"`
}

// TestTraceIDEchoAndGeneration: a client-supplied X-Request-Id is echoed
// on the response and attached to error bodies; an absent or oversized
// one is replaced with a generated ID.
func TestTraceIDEchoAndGeneration(t *testing.T) {
	_, ts := newPaperServer(t, Config{})

	// Supplied ID: echoed on the header and in a 400 error body.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/related?obs=not-there", nil)
	req.Header.Set(TraceIDHeader, "client-chosen-id-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if got := resp.Header.Get(TraceIDHeader); got != "client-chosen-id-1" {
		t.Errorf("header trace ID %q, want the client's", got)
	}
	if body["traceId"] != "client-chosen-id-1" {
		t.Errorf("error body traceId %q, want the client's; body=%v", body["traceId"], body)
	}

	// No ID: one is generated, and it is unique across requests.
	seen := map[string]bool{}
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		id := resp.Header.Get(TraceIDHeader)
		if id == "" {
			t.Fatal("no trace ID generated")
		}
		if seen[id] {
			t.Fatalf("trace ID %q repeated", id)
		}
		seen[id] = true
	}

	// Oversized ID: replaced, not echoed (the header is a correlation
	// token, not a payload channel).
	big := strings.Repeat("x", maxTraceIDLen+1)
	req, _ = http.NewRequest("GET", ts.URL+"/v1/stats", nil)
	req.Header.Set(TraceIDHeader, big)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(TraceIDHeader); got == big || got == "" {
		t.Errorf("oversized trace ID not replaced: %q", got)
	}
}

// TestDebugTracesRing: a real /v1/related request lands in the ring with
// a span tree naming the fan-out phases, and the query filters work.
func TestDebugTracesRing(t *testing.T) {
	_, ts := newPaperServer(t, Config{})

	req, _ := http.NewRequest("GET", ts.URL+"/v1/related?obs=0", nil)
	req.Header.Set(TraceIDHeader, "ring-probe")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("related: status %d", resp.StatusCode)
	}

	var tracesResp tracesResponse
	if code := getJSON(t, ts.URL+"/debug/traces?id=ring-probe", &tracesResp); code != http.StatusOK {
		t.Fatalf("/debug/traces: status %d", code)
	}
	if len(tracesResp.Traces) != 1 {
		t.Fatalf("got %d traces for id=ring-probe, want 1", len(tracesResp.Traces))
	}
	tr := tracesResp.Traces[0]
	if tr.Route != "related" || tr.Status != http.StatusOK || tr.ID != "ring-probe" {
		t.Fatalf("trace mis-recorded: %+v", tr)
	}
	if len(tr.Spans) != 1 || tr.Spans[0].Name != "related" {
		t.Fatalf("want one root span 'related', got %+v", tr.Spans)
	}
	names := map[string]bool{}
	for _, c := range tr.Spans[0].Children {
		names[c.Name] = true
	}
	for _, want := range []string{"resolve", "fanout.full", "fanout.partial", "fanout.complements"} {
		if !names[want] {
			t.Errorf("span tree missing child %q; have %v", want, names)
		}
	}

	// The /debug/traces request itself must NOT appear in the ring (it is
	// served unwrapped).
	var all tracesResponse
	getJSON(t, ts.URL+"/debug/traces", &all)
	for _, tr := range all.Traces {
		if tr.Route == "traces" || strings.HasPrefix(tr.Path, "/debug/") {
			t.Fatalf("/debug/traces polluted its own ring: %+v", tr)
		}
	}

	// Route filter and min_us filter.
	var filtered tracesResponse
	getJSON(t, ts.URL+"/debug/traces?route=related", &filtered)
	for _, tr := range filtered.Traces {
		if tr.Route != "related" {
			t.Fatalf("route filter leaked %+v", tr)
		}
	}
	getJSON(t, ts.URL+"/debug/traces?min_us=999999999", &filtered)
	if len(filtered.Traces) != 0 {
		t.Fatalf("min_us filter leaked %d traces", len(filtered.Traces))
	}
}

// TestTraceRingBounded: the ring retains at most its capacity, newest
// first, while counting every recorded trace.
func TestTraceRingBounded(t *testing.T) {
	_, ts := newPaperServer(t, Config{TraceRing: 4})
	for i := 0; i < 10; i++ {
		req, _ := http.NewRequest("GET", fmt.Sprintf("%s/v1/contains?obs=0", ts.URL), nil)
		req.Header.Set(TraceIDHeader, fmt.Sprintf("seq-%d", i))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	var got tracesResponse
	getJSON(t, ts.URL+"/debug/traces", &got)
	if got.Capacity != 4 || got.Recorded != 10 || len(got.Traces) != 4 {
		t.Fatalf("capacity=%d recorded=%d retained=%d, want 4/10/4", got.Capacity, got.Recorded, len(got.Traces))
	}
	if got.Traces[0].ID != "seq-9" || got.Traces[3].ID != "seq-6" {
		t.Fatalf("ring not newest-first: %q ... %q", got.Traces[0].ID, got.Traces[3].ID)
	}
}

// TestTraceIDSurvivesCancellation: the 499 (client hung up) and 504
// (deadline overrun) abandonment responses still carry the trace ID in
// both the header and the JSON body. Exercised through the middleware
// directly so the context state is deterministic.
func TestTraceIDSurvivesCancellation(t *testing.T) {
	srv, _ := newPaperServer(t, Config{})
	h := srv.wrap("related", srv.handleRelated)

	cases := []struct {
		name       string
		ctx        func() (context.Context, context.CancelFunc)
		wantStatus int
	}{
		{"client-hangup-499", func() (context.Context, context.CancelFunc) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			return ctx, func() {}
		}, statusClientClosedRequest},
		{"deadline-504", func() (context.Context, context.CancelFunc) {
			return context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		}, http.StatusGatewayTimeout},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := tc.ctx()
			defer cancel()
			req := httptest.NewRequest("GET", "/v1/related?obs=0", nil).WithContext(ctx)
			req.Header.Set(TraceIDHeader, "abandoned-"+tc.name)
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != tc.wantStatus {
				t.Fatalf("status %d, want %d", w.Code, tc.wantStatus)
			}
			if got := w.Header().Get(TraceIDHeader); got != "abandoned-"+tc.name {
				t.Errorf("header trace ID %q lost on abandonment", got)
			}
			var body map[string]string
			if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
				t.Fatalf("body not JSON: %v (%q)", err, w.Body.String())
			}
			if body["traceId"] != "abandoned-"+tc.name {
				t.Errorf("body traceId %q lost on abandonment; body=%v", body["traceId"], body)
			}
		})
	}
}

// TestSlowQueryLog: a request at or over the threshold is written to the
// log as one JSON line correlating with its ring entry by trace ID.
func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	srv, _ := newPaperServer(t, Config{SlowThreshold: time.Millisecond, SlowLog: &buf})

	// Deterministically slow handler through the same middleware.
	h := srv.wrap("sleepy", func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(3 * time.Millisecond)
		writeJSON(w, http.StatusOK, map[string]string{"ok": "1"})
	})
	req := httptest.NewRequest("GET", "/sleepy", nil)
	req.Header.Set(TraceIDHeader, "slow-1")
	h.ServeHTTP(httptest.NewRecorder(), req)

	// A fast request stays out of the log.
	fast := srv.wrap("fast", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"ok": "1"})
	})
	fast.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/fast", nil))

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("slow log has %d lines, want 1: %q", len(lines), buf.String())
	}
	var entry struct {
		TS         string `json:"ts"`
		TraceID    string `json:"traceId"`
		Route      string `json:"route"`
		DurationUs int64  `json:"durationUs"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &entry); err != nil {
		t.Fatalf("slow log line not JSON: %v (%q)", err, lines[0])
	}
	if entry.TraceID != "slow-1" || entry.Route != "sleepy" || entry.DurationUs < 1000 || entry.TS == "" {
		t.Fatalf("slow log entry wrong: %+v", entry)
	}
}

// TestStatsLatencyQuantiles: with a Collector recorder, /v1/stats gains a
// latency object carrying count, mean and quantiles.
func TestStatsLatencyQuantiles(t *testing.T) {
	col := obsv.NewCollector()
	_, ts := newPaperServer(t, Config{Recorder: col})
	for i := 0; i < 5; i++ {
		resp, err := http.Get(ts.URL + "/v1/contains?obs=0")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	var stats struct {
		Latency *obsv.QuantileSummary `json:"latency"`
	}
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("/v1/stats: status %d", code)
	}
	if stats.Latency == nil {
		t.Fatal("stats missing latency quantiles")
	}
	if stats.Latency.Count < 5 {
		t.Fatalf("latency count %d, want >= 5", stats.Latency.Count)
	}
	if stats.Latency.P99 < stats.Latency.P50 || stats.Latency.Mean <= 0 {
		t.Fatalf("implausible latency summary: %+v", stats.Latency)
	}
}

// TestInsertTraceSpans: an insert's trace names the write path phases
// (lock wait, validation, WAL append, incremental apply), and the WAL
// append latency feeds its histogram.
func TestInsertTraceSpans(t *testing.T) {
	col := obsv.NewCollector()
	srv, ts := newDurableServerForTrace(t, col)

	body := map[string]any{
		"dataset": srv.inc.S.Corpus.Datasets[0].URI.Value,
		"uri":     "http://example.org/obs/traced-insert",
	}
	var out map[string]any
	data, _ := json.Marshal(body)
	req, _ := http.NewRequest("POST", ts.URL+"/v1/observations", bytes.NewReader(data))
	req.Header.Set(TraceIDHeader, "insert-probe")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("insert: status %d body %v", resp.StatusCode, out)
	}

	var traces tracesResponse
	getJSON(t, ts.URL+"/debug/traces?id=insert-probe", &traces)
	if len(traces.Traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces.Traces))
	}
	names := map[string]bool{}
	for _, c := range traces.Traces[0].Spans[0].Children {
		names[c.Name] = true
	}
	for _, want := range []string{"lock.wait", "validate", "wal.append", "apply"} {
		if !names[want] {
			t.Errorf("insert trace missing span %q; have %v", want, names)
		}
	}
	if s, ok := col.HistSnapshot(HistWALAppend); !ok || s.Count != 1 {
		t.Errorf("WAL append histogram not recorded: ok=%v %+v", ok, s)
	}
	// The Space recorder must be restored (not left feeding the trace).
	if got := srv.inc.S.Recorder(); got != obsv.Recorder(col) {
		t.Errorf("space recorder not restored after insert: %T", got)
	}
}

// newDurableServerForTrace builds a WAL-backed paper server over a MemFS
// so the wal.append span and histogram exist.
func newDurableServerForTrace(t *testing.T, col *obsv.Collector) (*Server, *httptest.Server) {
	t.Helper()
	srv, ts, _ := newDurableServer(t, faultfs.NewMemFS(), paperSnapshotBytes(t), Config{Recorder: col})
	return srv, ts
}
