// Package stats provides the descriptive statistics used throughout the
// reproduction: exact running means and variances, histograms, weekly
// time profiles and availability "nines".
//
// All accumulators are plain values with useful zero states so they can be
// embedded in larger aggregation structures without constructors.
package stats

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
)

// Observations are quantised once, to q = round(x·2^24) (ties to even),
// and accumulated as integers, so every sum, mean and variance is a
// function of the multiset of observations alone: Add order, Merge
// order and the split between accumulators cannot change a bit. The
// quantum, 2^-24 ≈ 6e-8, is far below anything the paper prints.
// Observations with |x| ≥ 2^38 (≈ 2.7e11) keep |q| < 2^62, so 2^63
// of them fit Σq in 128 bits and Σq² in 192.
const (
	fracBits = 24
	maxAbs   = 1 << 38
)

// quantize returns round(x·2^24), or false for a non-finite x or one
// with |x| ≥ 2^38. The scaling by a power of two is exact.
func quantize(x float64) (int64, bool) {
	y := x * (1 << fracBits)
	return int64(math.RoundToEven(y)), math.Abs(y) < maxAbs*(1<<fracBits) // NaN fails every comparison
}

// Sum accumulates a stream of float64 observations exactly and reports
// their count, sum and mean: n and Σq in 128 bits, where q is the
// quantised observation. Merge is integer addition, so accumulators
// fed any partition of the same observations, in any order, merge to
// identical state.
//
// Non-finite observations (NaN, ±Inf) and those with |x| ≥ 2^38 are
// skipped, not propagated: in a streaming aggregate there is no way to
// undo a poisoned mean after the fact. Skipped observations are counted
// and reported by Dropped so callers can surface data-quality problems
// instead of losing them.
type Sum struct {
	n       int64
	lo, hi  uint64 // Σq, two's complement
	dropped int64
}

// Add feeds one observation into the accumulator.
func (s *Sum) Add(x float64) {
	if q, ok := quantize(x); ok {
		s.addQ(q)
	} else {
		s.dropped++
	}
}

func (s *Sum) addQ(q int64) {
	s.n++
	var c uint64
	s.lo, c = bits.Add64(s.lo, uint64(q), 0)
	s.hi += uint64(q>>63) + c
}

// Merge returns the accumulator of both operands' observations.
func (s Sum) Merge(o Sum) Sum {
	var c uint64
	s.lo, c = bits.Add64(s.lo, o.lo, 0)
	s.hi += o.hi + c
	s.n += o.n
	s.dropped += o.dropped
	return s
}

// N returns the number of observations.
func (s Sum) N() int64 { return s.n }

// Dropped returns the number of observations that were skipped instead
// of accumulated: non-finite, or of magnitude 2^38 or more.
func (s Sum) Dropped() int64 { return s.dropped }

// Total returns the sum of the (quantised) observations, rounded once.
func (s Sum) Total() float64 {
	neg, lo, hi := abs128(s.lo, s.hi)
	f := u128Float(lo, hi) * (1.0 / (1 << fracBits))
	if neg {
		return -f
	}
	return f
}

// Mean returns the arithmetic mean, rounded once, or 0 for an empty
// accumulator.
func (s Sum) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	// A sum and count of at most 53 bits convert exactly, so one IEEE
	// division rounds the mean, and the power-of-two scale is exact.
	if q := int64(s.lo); uint64(q>>63) == s.hi && q >= -1<<53 && q <= 1<<53 && s.n <= 1<<53 {
		return float64(q) / float64(s.n) * (1.0 / (1 << fracBits))
	}
	num := s128Big(s.lo, s.hi)
	den := new(big.Int).Lsh(big.NewInt(s.n), fracBits)
	f, _ := new(big.Rat).SetFrac(num, den).Float64()
	return f
}

// Running is Sum plus Σq² in 192 bits, so it also reports the variance
// and standard deviation, computed from the integers when read. Like
// Sum's, its state is order-free: Merge is integer addition.
type Running struct {
	Sum
	sq [3]uint64 // Σq², unsigned
}

// Add feeds one observation into the accumulator.
func (r *Running) Add(x float64) {
	q, ok := quantize(x)
	if !ok {
		r.dropped++
		return
	}
	r.addQ(q)
	a := uint64(q)
	if q < 0 {
		a = -a
	}
	hi, lo := bits.Mul64(a, a)
	var c uint64
	r.sq[0], c = bits.Add64(r.sq[0], lo, 0)
	r.sq[1], c = bits.Add64(r.sq[1], hi, c)
	r.sq[2] += c
}

// Merge returns the accumulator of both operands' observations.
func (r Running) Merge(o Running) Running {
	r.Sum = r.Sum.Merge(o.Sum)
	var c uint64
	r.sq[0], c = bits.Add64(r.sq[0], o.sq[0], 0)
	r.sq[1], c = bits.Add64(r.sq[1], o.sq[1], c)
	r.sq[2] += o.sq[2] + c
	return r
}

// m2 returns n²·2^48 times the population variance, n·Σq² − (Σq)², as
// an exactly computed 256-bit integer rounded once to float64. It is
// never negative (Cauchy–Schwarz).
func (r Running) m2() float64 {
	// n·Σq²: 192 × 64 bits.
	n := uint64(r.n)
	h0, p0 := bits.Mul64(r.sq[0], n)
	h1, l1 := bits.Mul64(r.sq[1], n)
	h2, l2 := bits.Mul64(r.sq[2], n)
	p1, c := bits.Add64(h0, l1, 0)
	p2, c := bits.Add64(h1, l2, c)
	p3 := h2 + c
	// (Σq)² = a1²·2^128 + 2·a0·a1·2^64 + a0², on the magnitude.
	_, a0, a1 := abs128(r.lo, r.hi)
	s1, s0 := bits.Mul64(a0, a0)
	s3, s2 := bits.Mul64(a1, a1)
	mh, ml := bits.Mul64(a0, a1)
	s1, c = bits.Add64(s1, ml<<1, 0)
	s2, c = bits.Add64(s2, mh<<1|ml>>63, c)
	s3 += mh>>63 + c
	p0, b := bits.Sub64(p0, s0, 0)
	p1, b = bits.Sub64(p1, s1, b)
	p2, b = bits.Sub64(p2, s2, b)
	p3 -= s3 + b
	switch {
	case p3 != 0:
		return roundTop(p3, p2, p1|p0, 192)
	case p2 != 0:
		return roundTop(p2, p1, p0, 128)
	case p1 != 0:
		return roundTop(p1, p0, 0, 64)
	}
	return float64(p0)
}

// Var returns the population variance, or 0 for fewer than 2 observations.
func (r Running) Var() float64 {
	if r.n < 2 {
		return 0
	}
	n := float64(r.n)
	return r.m2() / (n * n) * (1.0 / (1 << (2 * fracBits)))
}

// SampleVar returns the sample (Bessel-corrected) variance.
func (r Running) SampleVar() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2() / (float64(r.n) * float64(r.n-1)) * (1.0 / (1 << (2 * fracBits)))
}

// StdDev returns the population standard deviation.
func (r Running) StdDev() float64 { return math.Sqrt(r.Var()) }

// SampleStdDev returns the sample standard deviation.
func (r Running) SampleStdDev() float64 { return math.Sqrt(r.SampleVar()) }

// String renders the accumulator as "n=… mean=… sd=…" for debugging.
func (r Running) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g", r.n, r.Mean(), r.StdDev())
}

// abs128 splits a two's-complement 128-bit integer into its sign and
// magnitude.
func abs128(lo, hi uint64) (neg bool, mlo, mhi uint64) {
	if int64(hi) >= 0 {
		return false, lo, hi
	}
	var b uint64
	mlo, b = bits.Sub64(0, lo, 0)
	mhi, _ = bits.Sub64(0, hi, b)
	return true, mlo, mhi
}

// u128Float rounds an unsigned 128-bit integer to the nearest float64.
func u128Float(lo, hi uint64) float64 {
	if hi == 0 {
		return float64(lo)
	}
	return roundTop(hi, lo, 0, 64)
}

// roundTop rounds hi·2^e + lo·2^(e−64) + rest, with hi ≠ 0 and rest
// below lo's last bit, to the nearest float64: hi's 64 significant bits,
// with every lower bit folded into a sticky bit below the rounding bit,
// convert exactly as the whole would, and the power of two is exact.
func roundTop(hi, lo, rest uint64, e int) float64 {
	z := uint(bits.LeadingZeros64(hi))
	top := hi<<z | lo>>(64-z)
	if lo<<z|rest != 0 {
		top |= 1
	}
	return float64(top) * math.Float64frombits(uint64(1023+e-int(z))<<52)
}

// s128Big converts a two's-complement 128-bit integer to a big.Int.
func s128Big(lo, hi uint64) *big.Int {
	neg, lo, hi := abs128(lo, hi)
	v := new(big.Int).SetUint64(hi)
	v.Lsh(v, 64).Or(v, new(big.Int).SetUint64(lo))
	if neg {
		v.Neg(v)
	}
	return v
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
