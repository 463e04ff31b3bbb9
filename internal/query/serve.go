package query

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"winlab/internal/telemetry"
	"winlab/internal/telemetry/httpx"
)

// Root combines the query API with the standard telemetry surface on one
// handler: /api/* routes to the query handler with a single prefix check
// (keeping its zero-allocation cache-hit path out of ServeMux), and
// everything else — /metrics, /vars, /spans, /events, /healthz,
// /debug/pprof/ — to the httpx telemetry mux. reg and ev may be nil.
func Root(api *Handler, reg *telemetry.Registry, ev httpx.EventSource) http.Handler {
	mux := http.NewServeMux()
	httpx.Mount(mux, reg, ev)
	return &root{api: api, rest: mux}
}

type root struct {
	api  *Handler
	rest http.Handler
}

func (r *root) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if strings.HasPrefix(req.URL.Path, "/api/") {
		r.api.ServeHTTP(w, req)
		return
	}
	r.rest.ServeHTTP(w, req)
}

// Server is a running query HTTP server.
type Server struct {
	srv *http.Server
	ln  net.Listener
}

// DrainTimeout is how long the commands give Shutdown to let in-flight
// requests finish before the remaining connections are cut.
const DrainTimeout = 5 * time.Second

// Serve binds addr (":0" for an ephemeral port) and serves handler in a
// background goroutine. Keep-alive connections idle for IdleTimeout are
// closed, so a client that walks away does not pin a connection.
func Serve(addr string, handler http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("query: listen %s: %w", addr, err)
	}
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
	s := &Server{srv: srv, ln: ln}
	go func() { _ = srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the server's base URL.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Close stops the server immediately, dropping in-flight requests.
func (s *Server) Close() error { return s.srv.Close() }

// Shutdown stops the server gracefully: the listener closes at once (new
// connections are refused), idle connections close, and requests already
// in a handler run to completion. If ctx ends first, the connections
// still open are closed and ctx's error is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.srv.Shutdown(ctx)
	if err != nil {
		_ = s.srv.Close()
	}
	return err
}

// Drain is Shutdown bounded by DrainTimeout, for a command's exit path.
func (s *Server) Drain() error {
	ctx, cancel := context.WithTimeout(context.Background(), DrainTimeout)
	defer cancel()
	return s.Shutdown(ctx)
}
