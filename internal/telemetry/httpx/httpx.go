// Package httpx serves a telemetry.Registry over HTTP: Prometheus text
// exposition on /metrics, a JSON snapshot on /vars, a liveness check on
// /healthz, recent probe spans on /spans, recent anomaly events on
// /events, and the standard net/http/pprof profiling endpoints under
// /debug/pprof/. It is the live window into a running coordinator — the
// same counters Stats reports after a run, but scrapeable while the
// sweep is still going.
package httpx

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"winlab/internal/telemetry"
)

// Server is a running telemetry HTTP server.
type Server struct {
	srv *http.Server
	ln  net.Listener
}

// EventSource is anything that can render its recent events as a JSON
// array — anomaly.Ring in practice. n > 0 limits the output to the n
// most recent events. The indirection keeps httpx decoupled from the
// detector package: a nil source serves "[]".
type EventSource interface {
	AppendJSON(dst []byte, n int) []byte
}

// HandlerEvents builds the telemetry mux for reg and serves ev's recent
// events on /events (most recent last; ?n=K limits to the K newest). A
// nil ev serves an empty array there. The registry may be nil, in which
// case /metrics and /vars serve empty documents (the endpoints stay up
// so probes of the coordinator itself keep working).
func HandlerEvents(reg *telemetry.Registry, ev EventSource) http.Handler {
	mux := http.NewServeMux()
	Mount(mux, reg, ev)
	return mux
}

// Mount registers the telemetry endpoints on a caller-owned mux, for
// servers that serve their own API next to the telemetry surface
// (cmd/queryd mounts these beside /api/*). Same endpoints and semantics
// as HandlerEvents.
func Mount(mux *http.ServeMux, reg *telemetry.Registry, ev EventSource) {
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		n := 0
		if nStr := r.URL.Query().Get("n"); nStr != "" {
			if v, err := strconv.Atoi(nStr); err == nil && v > 0 {
				n = v
			}
		}
		if ev == nil {
			_, _ = w.Write([]byte("[]\n"))
			return
		}
		out := ev.AppendJSON(nil, n)
		out = append(out, '\n')
		_, _ = w.Write(out)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(reg.TakeSnapshot())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/spans", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		spans := reg.Spans().Snapshot()
		if nStr := r.URL.Query().Get("n"); nStr != "" {
			if n, err := strconv.Atoi(nStr); err == nil && n >= 0 && n < len(spans) {
				spans = spans[len(spans)-n:]
			}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(spans)
	})
	// pprof must be wired by hand on a non-default mux.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// ServeEvents binds addr (e.g. "127.0.0.1:9090", ":0" for an ephemeral
// port) and serves HandlerEvents(reg, ev) in a background goroutine.
func ServeEvents(addr string, reg *telemetry.Registry, ev EventSource) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("httpx: listen %s: %w", addr, err)
	}
	srv := &http.Server{
		Handler:           HandlerEvents(reg, ev),
		ReadHeaderTimeout: 5 * time.Second,
	}
	s := &Server{srv: srv, ln: ln}
	go func() { _ = srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the server's base URL.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Close stops the server immediately.
func (s *Server) Close() error { return s.srv.Close() }
