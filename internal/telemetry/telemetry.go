// Package telemetry is the collector's zero-dependency observability
// layer: a metrics registry of atomic counters, gauges and fixed-bucket
// latency histograms, plus a per-probe span recorder (machine, iteration,
// attempt, latency, outcome) that streams into a bounded in-memory ring
// and, optionally, a JSONL writer.
//
// The package is built for two consumers at once:
//
//   - the hot path (WallCollector's probe loop, the TCP transport, the
//     dataset sink), which must stay allocation-free when telemetry is
//     disabled. Every method in the package is nil-safe: a nil *Registry
//     hands out nil *Counter/*Gauge/*Histogram/*SpanRecorder handles whose
//     methods are no-ops, so instrumented code needs no conditionals and
//     pays nothing when unobserved;
//   - the scrape path (telemetry/httpx), which renders the registry as
//     Prometheus text exposition on /metrics and a JSON snapshot on /vars.
//     Scrapes are lock-cheap: all metric values are read with atomic
//     loads, never by stopping writers.
//
// Metric names follow Prometheus conventions (snake_case, _total suffix
// for counters, _seconds for latency histograms). The registry does not
// support labels — the collector's cardinality (one process, one fleet)
// does not need them, and their absence keeps the hot path free of map
// lookups and string concatenation.
package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds a process's metrics and its span recorder. The zero
// value is not usable; create one with NewRegistry. A nil *Registry is a
// valid "telemetry off" value: all lookups return nil handles whose
// methods no-op.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	spans *SpanRecorder
	start time.Time
}

// NewRegistry creates an empty registry with a span ring of
// DefaultSpanCapacity.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		spans:    newSpanRecorder(DefaultSpanCapacity),
		start:    time.Now(),
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a no-op handle) when r is nil.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{name: name}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil
// (a no-op handle) when r is nil.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{name: name}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use with
// the given bucket upper bounds in seconds (nil means
// DefaultLatencyBuckets). Returns nil (a no-op handle) when r is nil.
// Bounds are fixed at creation: later calls with different bounds return
// the existing histogram.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = newHistogram(name, bounds)
		r.hists[name] = h
	}
	return h
}

// Spans returns the registry's span recorder, or nil (a no-op handle)
// when r is nil.
func (r *Registry) Spans() *SpanRecorder {
	if r == nil {
		return nil
	}
	return r.spans
}

// Uptime reports how long ago the registry was created.
func (r *Registry) Uptime() time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(r.start)
}

// Counter is a monotonically increasing atomic counter. All methods are
// safe on a nil receiver (no-ops / zero values).
type Counter struct {
	v    atomic.Int64
	name string
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by n. Negative deltas are ignored: counters
// are monotonic by contract (use a Gauge for values that go down).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value (in-flight probes, open
// breakers). All methods are safe on a nil receiver.
type Gauge struct {
	v    atomic.Int64
	name string
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds delta (which may be negative).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}
