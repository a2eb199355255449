package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"rdfcube/internal/front"
)

// The middleware tests name the front's identifiers as they read from
// inside this package.
const (
	TraceIDHeader = front.TraceIDHeader
	maxTraceIDLen = front.MaxTraceIDLen
)

type Trace = front.Trace

var WriteJSON = front.WriteJSON

// TestFrontAllocationBudget: what the HTTP layer around a route — the
// admission step, the deadline and the front — allocates per request, as
// the full stack minus the bare handler on /healthz. It measures 25 (33
// against 8); the bound is the 27 serve's own wrapper cost before the
// front replaced it, which leaves 2 of headroom.
func TestFrontAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under -race")
	}
	srv, _ := newPaperServer(t, Config{})
	w := &discardWriter{h: http.Header{}}
	r := httptest.NewRequest("GET", "/healthz", nil)
	full, bare := srv.Handler(), http.HandlerFunc(srv.handleHealthz)
	layer := testing.AllocsPerRun(200, func() { full.ServeHTTP(w, r) }) -
		testing.AllocsPerRun(200, func() { bare.ServeHTTP(w, r) })
	t.Logf("the layer around /healthz allocates %.0f times a request", layer)
	const budget = 27
	if layer > budget {
		t.Errorf("the layer around /healthz allocates %.0f times a request, want ≤ %d", layer, budget)
	}
}
