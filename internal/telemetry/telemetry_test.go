package telemetry

import (
	"sync"
	"testing"
	"time"
)

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	// Every lookup on a nil registry returns a nil handle whose methods
	// must not panic and must report zero values.
	c := r.Counter("x")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatalf("nil counter not inert: %d", c.Value())
	}
	g := r.Gauge("y")
	g.Set(7)
	g.Add(-3)
	if g.Value() != 0 {
		t.Fatalf("nil gauge not inert: %d", g.Value())
	}
	h := r.Histogram("z", nil)
	h.Observe(time.Second)
	h.ObserveSeconds(0.5)
	if h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram not inert")
	}
	if s := h.Summary(); s != (HistogramSummary{}) {
		t.Fatalf("nil histogram summary = %+v", s)
	}
	sp := r.Spans()
	sp.Record(Span{Machine: "m1"})
	if sp.Total() != 0 || sp.Buffered() != 0 || sp.Snapshot() != nil || sp.WriteErr() != nil {
		t.Fatal("nil span recorder not inert")
	}
	if r.Uptime() != 0 {
		t.Fatal("nil registry uptime != 0")
	}
	if err := r.WritePrometheus(nil); err != nil {
		t.Fatalf("nil registry WritePrometheus: %v", err)
	}
	snap := r.TakeSnapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("probes_total")
	c.Inc()
	c.Add(4)
	c.Add(-10) // negative deltas ignored: counters are monotonic
	c.Add(0)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if c2 := r.Counter("probes_total"); c2 != c {
		t.Fatal("same name returned a different counter")
	}
	g := r.Gauge("inflight")
	g.Add(3)
	g.Add(-1)
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge = %d, want 2", got)
	}
	g.Set(-7)
	if got := g.Value(); got != -7 {
		t.Fatalf("gauge = %d, want -7", got)
	}
}

func TestHistogramQuantilesAndSum(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{0.1, 0.2, 0.4, 0.8})
	// 100 observations uniformly inside (0, 0.1]: p50 interpolates to
	// ~0.05 within the first bucket.
	for i := 0; i < 100; i++ {
		h.ObserveSeconds(0.05)
	}
	if got := h.Count(); got != 100 {
		t.Fatalf("count = %d, want 100", got)
	}
	p50 := h.Quantile(0.5)
	if p50 <= 0 || p50 > 0.1 {
		t.Fatalf("p50 = %v, want within first bucket (0, 0.1]", p50)
	}
	// Push 100 more into the (0.2, 0.4] bucket; p95 must land there.
	for i := 0; i < 100; i++ {
		h.Observe(300 * time.Millisecond)
	}
	p95 := h.Quantile(0.95)
	if p95 <= 0.2 || p95 > 0.4 {
		t.Fatalf("p95 = %v, want within (0.2, 0.4]", p95)
	}
	wantSum := 100*0.05 + 100*0.3
	if got := h.Sum().Seconds(); got < wantSum-0.001 || got > wantSum+0.001 {
		t.Fatalf("sum = %v, want ≈ %v", got, wantSum)
	}
	// Observations beyond every bound land in +Inf and quantiles clamp to
	// the largest finite bound.
	h2 := r.Histogram("lat2", []float64{0.1})
	h2.ObserveSeconds(5)
	if q := h2.Quantile(0.99); q != 0.1 {
		t.Fatalf("overflow quantile = %v, want 0.1 (largest finite bound)", q)
	}
	if h2.Quantile(0.5) != 0.1 {
		t.Fatal("empty-bucket interpolation should fall back to bound")
	}
}

func TestHistogramDefaultBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("d", nil)
	h.ObserveSeconds(0.003)
	if h.Count() != 1 {
		t.Fatal("observation lost")
	}
	if got := len(h.bounds); got != len(DefaultLatencyBuckets) {
		t.Fatalf("bounds = %d, want %d", got, len(DefaultLatencyBuckets))
	}
	// Second lookup with different bounds returns the existing histogram.
	if h2 := r.Histogram("d", []float64{1}); h2 != h {
		t.Fatal("histogram identity not stable across lookups")
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h", nil).ObserveSeconds(0.01)
				r.Spans().Record(Span{Machine: "m", Iter: j, Outcome: OutcomeOK})
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Gauge("g").Value(); got != 8000 {
		t.Fatalf("gauge = %d, want 8000", got)
	}
	if got := r.Histogram("h", nil).Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
	if got := r.Spans().Total(); got != 8000 {
		t.Fatalf("span total = %d, want 8000", got)
	}
	if got := r.Spans().Buffered(); got != DefaultSpanCapacity {
		t.Fatalf("buffered = %d, want full ring %d", got, DefaultSpanCapacity)
	}
	snap := r.TakeSnapshot()
	if snap.Counters["c"] != 8000 || snap.Gauges["g"] != 8000 {
		t.Fatalf("snapshot mismatch: %+v", snap)
	}
	if snap.Histograms["h"].Count != 8000 {
		t.Fatalf("snapshot histogram count = %d", snap.Histograms["h"].Count)
	}
}
