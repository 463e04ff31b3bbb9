package telemetry

import (
	"sort"
	"sync/atomic"
	"time"
)

// DefaultLatencyBuckets are the histogram bounds used when none are
// given, in seconds. They span sub-millisecond in-process probes up to
// the multi-second timeouts of a hard-down machine.
var DefaultLatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// Histogram is a fixed-bucket latency histogram with atomic per-bucket
// counters. Observations are recorded lock-free; quantiles (p50/p95/p99)
// are estimated by linear interpolation inside the owning bucket, the
// standard Prometheus client-side estimate. All methods are safe on a
// nil receiver.
type Histogram struct {
	name    string
	bounds  []float64 // ascending upper bounds, seconds
	buckets []atomic.Int64
	// sumNanos accumulates total observed time. It is updated atomically
	// but independently of the buckets, so a concurrent scrape may see a
	// sum slightly ahead of or behind the bucket counts — harmless for
	// monitoring, and it keeps Observe to two atomic adds.
	sumNanos atomic.Int64
}

// newHistogram builds a histogram with the given bounds (copied and
// sorted), defaulting to DefaultLatencyBuckets.
func newHistogram(name string, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets
	}
	bs := make([]float64, len(bounds))
	copy(bs, bounds)
	sort.Float64s(bs)
	return &Histogram{
		name:    name,
		bounds:  bs,
		buckets: make([]atomic.Int64, len(bs)+1), // +1: the +Inf bucket
	}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.ObserveSeconds(d.Seconds())
}

// ObserveSeconds records one observation given in seconds.
func (h *Histogram) ObserveSeconds(s float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && s > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.sumNanos.Add(int64(s * float64(time.Second)))
}

// snapshotCounts loads all bucket counters once, returning the per-bucket
// counts and their total. Loading once keeps a single scrape internally
// consistent (cumulative counts are monotone by construction).
func (h *Histogram) snapshotCounts() (counts []int64, total int64) {
	counts = make([]int64, len(h.buckets))
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	return counts, total
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	_, total := h.snapshotCounts()
	return total
}

// Sum returns the total observed time.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sumNanos.Load())
}

// Quantile estimates the q-quantile (0 < q ≤ 1) in seconds by linear
// interpolation within the owning bucket. Observations in the +Inf
// bucket are reported as the largest finite bound (there is no upper
// edge to interpolate toward). Returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	counts, total := h.snapshotCounts()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range counts {
		cum += c
		if float64(cum) >= rank {
			if i >= len(h.bounds) { // +Inf bucket
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			if c == 0 {
				return hi
			}
			frac := (rank - float64(cum-c)) / float64(c)
			return lo + (hi-lo)*frac
		}
	}
	return h.bounds[len(h.bounds)-1]
}

// HistogramSummary is the JSON-friendly digest of a histogram.
type HistogramSummary struct {
	Count      int64   `json:"count"`
	SumSeconds float64 `json:"sum_seconds"`
	P50        float64 `json:"p50"`
	P95        float64 `json:"p95"`
	P99        float64 `json:"p99"`
}

// Summary digests the histogram into count, sum and the standard
// quantiles. Safe on a nil receiver (zero summary).
func (h *Histogram) Summary() HistogramSummary {
	if h == nil {
		return HistogramSummary{}
	}
	return HistogramSummary{
		Count:      h.Count(),
		SumSeconds: h.Sum().Seconds(),
		P50:        h.Quantile(0.50),
		P95:        h.Quantile(0.95),
		P99:        h.Quantile(0.99),
	}
}
