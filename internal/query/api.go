package query

import (
	"net/http"
	"strconv"
	"strings"
	"time"

	"winlab/internal/telemetry"
)

// Pre-built header values: the cache-hit path assigns these []string
// slices into the header map directly (canonical textproto keys), so a
// warm request allocates nothing.
var (
	jsonCT      = []string{"application/json"}
	noCacheCC   = []string{"no-cache"}
	retryAfter1 = []string{"1"}
	allowGet    = []string{"GET, HEAD"}
)

// Config wires a Handler. Only Store is required.
type Config struct {
	Store  *Store
	Gate   *Gate               // nil admits everything
	Events *EventLog           // nil serves an empty event history
	Reg    *telemetry.Registry // nil disables metrics

	// MaxEvents bounds one /api/events response; 0 means 1000.
	MaxEvents int
}

// Handler serves the query API:
//
//	/api/epoch         the Meta block alone (cheap change detection)
//	/api/summary       headline numbers of every paper artefact
//	/api/availability  per-iteration powered-on / user-free series
//	/api/labs          per-laboratory usage
//	/api/machines      per-machine uptime ratios
//	/api/weekly        Figure 5 weekly profiles
//	/api/equivalence   cluster-equivalence ratios + weekly curves
//	/api/uptimes       uptime-ratio histogram + threshold counts
//	/api/heatmap       hour-of-week fleet and per-machine heatmaps
//	/api/events        anomaly event history (?since=epoch|RFC3339, dynamic)
//
// Every snapshot endpoint responds from the per-epoch cache with a
// strong ETag derived from the snapshot fingerprint; If-None-Match
// revalidation returns 304 without touching the body. A warm cache hit
// performs zero heap allocations.
type Handler struct {
	store     *Store
	gate      *Gate
	events    *EventLog
	maxEvents int

	// Metric handles are resolved once here; all are nil-receiver-safe,
	// so a nil registry costs nothing per request.
	reqs        *telemetry.Counter
	hits        *telemetry.Counter
	misses      *telemetry.Counter
	notModified *telemetry.Counter
	shedCount   *telemetry.Counter
	errCount    *telemetry.Counter
	inflight    *telemetry.Gauge
	latency     *telemetry.Histogram
}

// NewHandler builds the query API handler.
func NewHandler(cfg Config) *Handler {
	h := &Handler{
		store:     cfg.Store,
		gate:      cfg.Gate,
		events:    cfg.Events,
		maxEvents: cfg.MaxEvents,
	}
	if h.maxEvents <= 0 {
		h.maxEvents = 1000
	}
	if r := cfg.Reg; r != nil {
		h.reqs = r.Counter("query_requests_total")
		h.hits = r.Counter("query_cache_hits_total")
		h.misses = r.Counter("query_cache_misses_total")
		h.notModified = r.Counter("query_not_modified_total")
		h.shedCount = r.Counter("query_shed_total")
		h.errCount = r.Counter("query_errors_total")
		h.inflight = r.Gauge("query_inflight")
		h.latency = r.Histogram("query_latency_seconds", nil)
	}
	return h
}

// endpointID routes a path with a plain string switch — no mux, no map,
// no per-request allocation.
func endpointID(path string) int {
	switch path {
	case "/api/epoch":
		return epEpoch
	case "/api/summary":
		return epSummary
	case "/api/availability":
		return epAvailability
	case "/api/labs":
		return epLabs
	case "/api/machines":
		return epMachines
	case "/api/weekly":
		return epWeekly
	case "/api/equivalence":
		return epEquivalence
	case "/api/uptimes":
		return epUptimes
	case "/api/heatmap":
		return epHeatmap
	}
	return -1
}

func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header()["Allow"] = allowGet
		w.WriteHeader(http.StatusMethodNotAllowed)
		return
	}
	path := r.URL.Path
	if path == "/api/events" {
		h.serveEvents(w, r)
		return
	}
	ep := endpointID(path)
	if ep < 0 {
		http.NotFound(w, r)
		return
	}
	h.reqs.Inc()
	if !h.gate.Acquire() {
		h.shedCount.Inc()
		w.Header()["Retry-After"] = retryAfter1
		w.WriteHeader(http.StatusServiceUnavailable)
		return
	}
	defer h.gate.Release()
	h.inflight.Add(1)
	defer h.inflight.Add(-1)
	start := time.Now()

	s := h.store.Current()
	if s == nil { // nothing published yet
		w.Header()["Retry-After"] = retryAfter1
		w.WriteHeader(http.StatusServiceUnavailable)
		return
	}
	a := s.Aggregates()

	hdr := w.Header()
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatch(inm, a.etag) {
		hdr["Etag"] = a.etagHdr
		w.WriteHeader(http.StatusNotModified)
		h.notModified.Inc()
		h.latency.Observe(time.Since(start))
		return
	}

	hit := s.cache[ep].Load() != nil
	c, err := s.body(ep)
	if err != nil {
		h.failed(w, err)
		return
	}
	if c == nil { // aggregate unavailable in this snapshot (stream-mode heatmap)
		http.NotFound(w, r)
		return
	}
	if hit {
		h.hits.Inc()
	} else {
		h.misses.Inc()
	}
	hdr["Content-Type"] = jsonCT
	hdr["Content-Length"] = c.clen
	hdr["Etag"] = a.etagHdr
	hdr["Cache-Control"] = noCacheCC
	if r.Method == http.MethodHead {
		w.WriteHeader(http.StatusOK)
	} else {
		w.Write(c.b)
	}
	h.latency.Observe(time.Since(start))
}

// failed answers 500 for a document that could not be encoded: the
// results hold a value JSON cannot carry (NaN, ±Inf).
func (h *Handler) failed(w http.ResponseWriter, err error) {
	h.errCount.Inc()
	http.Error(w, "encoding response: "+err.Error(), http.StatusInternalServerError)
}

// etagMatch reports whether an If-None-Match header value matches the
// snapshot's ETag. Exact single-validator match is the fast path; "*"
// and comma-separated lists are honoured without allocating.
func etagMatch(inm, etag string) bool {
	return inm == etag || inm == "*" || strings.Contains(inm, etag)
}

// serveEvents handles /api/events?since=<epoch|RFC3339>&max=<n>. The
// response is built per request — the event history moves between
// epochs — so it takes the admission gate like any other dynamic work
// but bypasses the snapshot cache.
func (h *Handler) serveEvents(w http.ResponseWriter, r *http.Request) {
	h.reqs.Inc()
	if !h.gate.Acquire() {
		h.shedCount.Inc()
		w.Header()["Retry-After"] = retryAfter1
		w.WriteHeader(http.StatusServiceUnavailable)
		return
	}
	defer h.gate.Release()
	h.inflight.Add(1)
	defer h.inflight.Add(-1)
	start := time.Now()

	var sinceEpoch uint64
	var sinceTime time.Time
	if since := r.URL.Query().Get("since"); since != "" {
		if n, err := strconv.ParseUint(since, 10, 64); err == nil {
			sinceEpoch = n
		} else if t, err := time.Parse(time.RFC3339, since); err == nil {
			sinceTime = t
		} else {
			http.Error(w, "bad since: want epoch number or RFC3339 time", http.StatusBadRequest)
			return
		}
	}
	max := h.maxEvents
	if ms := r.URL.Query().Get("max"); ms != "" {
		if n, err := strconv.Atoi(ms); err == nil && n > 0 && n < max {
			max = n
		}
	}
	b, err := h.events.encode(sinceEpoch, sinceTime, max)
	if err != nil {
		h.failed(w, err)
		return
	}
	w.Header()["Content-Type"] = jsonCT
	w.Write(b)
	h.latency.Observe(time.Since(start))
}
