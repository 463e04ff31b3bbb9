package stats

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// Histogram is a fixed-width-bin histogram over [Lo, Hi). Values outside the
// range are counted in the first/last bin (the paper's Figure 4 right plot
// truncates at 96 h the same way, reporting the tail mass separately).
type Histogram struct {
	Lo, Hi float64
	Counts []int64
	under  int64 // observations below Lo
	over   int64 // observations at or above Hi
}

// NewHistogram creates a histogram with n equal-width bins over [lo, hi).
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 {
		panic("stats: histogram needs at least one bin")
	}
	if hi <= lo {
		panic("stats: histogram needs hi > lo")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int64, n)}
}

// Add records one observation. ±Inf land in the under/over tallies via
// the ordinary range comparisons; NaN compares false against both edges
// and would previously fall through to the bin computation, where
// int(NaN) produces a huge negative index and a panic — it is skipped
// instead, matching Running's skip semantics.
func (h *Histogram) Add(x float64) {
	switch {
	case math.IsNaN(x): // skipped
	case x < h.Lo:
		h.under++
	case x >= h.Hi:
		h.over++
	default:
		i := int(float64(len(h.Counts)) * (x - h.Lo) / (h.Hi - h.Lo))
		if i == len(h.Counts) { // guard against float rounding at Hi
			i--
		}
		h.Counts[i]++
	}
}

// Clone returns an independent copy of h.
func (h *Histogram) Clone() *Histogram {
	c := *h
	c.Counts = slices.Clone(h.Counts)
	return &c
}

// Merge adds o's counts into h. The histograms must have identical
// shape (same range, same bin count) — merging shards of a partitioned
// stream, not resampling.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil {
		return
	}
	if h.Lo != o.Lo || h.Hi != o.Hi || len(h.Counts) != len(o.Counts) {
		panic("stats: merging histograms of different shape")
	}
	for i, c := range o.Counts {
		h.Counts[i] += c
	}
	h.under += o.under
	h.over += o.over
}

// BinWidth returns the width of each bin.
func (h *Histogram) BinWidth() float64 {
	return (h.Hi - h.Lo) / float64(len(h.Counts))
}

// BinLo returns the lower edge of bin i.
func (h *Histogram) BinLo(i int) float64 {
	return h.Lo + float64(i)*h.BinWidth()
}

// Total returns the number of in-range observations.
func (h *Histogram) Total() int64 {
	var t int64
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// InRangeFraction reports the fraction of all observations that fell inside
// [Lo, Hi). The paper reports, e.g., that sessions ≤ 96 h are 98.7% of all
// sessions.
func (h *Histogram) InRangeFraction() float64 {
	all := h.Total() + h.under + h.over
	if all == 0 {
		return 0
	}
	return float64(h.Total()) / float64(all)
}

// String renders a compact ASCII bar chart, one line per bin.
func (h *Histogram) String() string {
	var b strings.Builder
	maxCount := int64(1)
	for _, c := range h.Counts {
		if c > maxCount {
			maxCount = c
		}
	}
	for i, c := range h.Counts {
		bar := int(math.Round(40 * float64(c) / float64(maxCount)))
		fmt.Fprintf(&b, "[%8.2f,%8.2f) %8d %s\n",
			h.BinLo(i), h.BinLo(i+1), c, strings.Repeat("#", bar))
	}
	if h.over > 0 {
		fmt.Fprintf(&b, "[%8.2f,     inf) %8d\n", h.Hi, h.over)
	}
	return b.String()
}
