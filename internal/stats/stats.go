// Package stats provides the descriptive statistics used throughout the
// reproduction: streaming mean/variance (Welford), histograms,
// weekly time profiles and availability "nines".
//
// All accumulators are plain values with useful zero states so they can be
// embedded in larger aggregation structures without constructors.
package stats

import (
	"fmt"
	"math"
)

// Running accumulates a stream of float64 observations and reports count,
// mean, variance and standard deviation using Welford's online algorithm,
// which is numerically stable for long traces (583k+ samples).
//
// Non-finite observations (NaN, ±Inf) are skipped, not propagated: in a
// streaming aggregate there is no way to undo a poisoned mean after the
// fact, and a single NaN would silently corrupt the whole accumulator
// (NaN contaminates mean and m2 through every subsequent Add).
// Skipped observations are counted and reported by Dropped so callers
// can surface data-quality problems instead of losing them.
type Running struct {
	n       int64
	mean    float64
	m2      float64
	dropped int64
}

// Add feeds one observation into the accumulator. Non-finite values are
// counted in Dropped and otherwise ignored.
func (r *Running) Add(x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		r.dropped++
		return
	}
	r.n++
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// Merge combines two accumulators as if all their observations had been
// added to a single one (Chan et al. parallel variance formula).
func (r Running) Merge(o Running) Running {
	if r.n == 0 {
		o.dropped += r.dropped
		return o
	}
	if o.n == 0 {
		r.dropped += o.dropped
		return r
	}
	n := r.n + o.n
	d := o.mean - r.mean
	mean := r.mean + d*float64(o.n)/float64(n)
	m2 := r.m2 + o.m2 + d*d*float64(r.n)*float64(o.n)/float64(n)
	return Running{
		n:       n,
		mean:    mean,
		m2:      m2,
		dropped: r.dropped + o.dropped,
	}
}

// N returns the number of observations.
func (r Running) N() int64 { return r.n }

// Dropped returns the number of non-finite observations that were
// skipped instead of accumulated.
func (r Running) Dropped() int64 { return r.dropped }

// Mean returns the arithmetic mean, or 0 for an empty accumulator.
func (r Running) Mean() float64 { return r.mean }

// Var returns the population variance, or 0 for fewer than 2 observations.
func (r Running) Var() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n)
}

// SampleVar returns the sample (Bessel-corrected) variance.
func (r Running) SampleVar() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// StdDev returns the population standard deviation.
func (r Running) StdDev() float64 { return math.Sqrt(r.Var()) }

// SampleStdDev returns the sample standard deviation.
func (r Running) SampleStdDev() float64 { return math.Sqrt(r.SampleVar()) }

// String renders the accumulator as "n=… mean=… sd=…" for debugging.
func (r Running) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g", r.n, r.Mean(), r.StdDev())
}

// Nines converts an availability ratio in [0,1) to "nines":
// -log10(1-ratio). A 0.9 ratio is 1 nine, 0.99 is 2 nines. Ratios ≥ 1 are
// clamped to a large finite value so sorted plots stay finite.
func Nines(ratio float64) float64 {
	if ratio >= 1 {
		return 9 // effectively "always up" for plotting purposes
	}
	if ratio <= 0 {
		return 0
	}
	return -math.Log10(1 - ratio)
}

// Clamp bounds x to the closed interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
