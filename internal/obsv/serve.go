package obsv

import (
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
)

// Handler returns an http.Handler exposing the collector:
//
//	/metrics        Prometheus-flavoured text exposition
//	/metrics.json   expvar-style JSON snapshot (phases, counters, gauges)
//	/debug/vars     the process-wide expvar page
//	/debug/pprof/   the standard net/http/pprof index and profiles
func Handler(c *Collector) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = c.WriteMetrics(w)
		// Runtime health (goroutines, heap, GC pauses) rides along so a
		// scrape correlates tail latency with the runtime's behavior.
		_ = WriteRuntimeMetrics(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		data, err := c.MarshalJSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		_, _ = w.Write(data)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// StartDebugServer starts the debug HTTP server on addr (e.g.
// "localhost:6060"; use port 0 for an ephemeral port) serving Handler(c).
// It returns the running server and the bound address; the caller shuts
// it down with srv.Close.
func StartDebugServer(addr string, c *Collector) (*http.Server, string, error) {
	return Serve(addr, Handler(c))
}

// Serve listens on addr (port 0 for an ephemeral port) and serves h until
// the returned server is shut down. It returns the bound address.
func Serve(addr string, h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr().String(), nil
}
