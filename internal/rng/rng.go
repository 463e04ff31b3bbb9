// Package rng provides deterministic random number streams and the
// distributions used by the workload model.
//
// Every stochastic component of the fleet simulator owns a named stream
// derived from a single experiment seed, so the whole 77-day experiment is
// reproducible bit-for-bit while components stay statistically independent:
// adding a draw to one component never perturbs another.
package rng

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// Source is a deterministic random stream. It wraps math/rand with the
// distribution helpers the behaviour model needs.
type Source struct {
	r *rand.Rand
}

// New creates a stream from a raw seed.
func New(seed int64) *Source {
	return &Source{r: rand.New(rand.NewSource(seed))}
}

// Derive creates an independent child stream identified by name. Identical
// (seed, name) pairs always produce identical streams.
func Derive(seed int64, name string) *Source {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return New(seed ^ int64(h.Sum64()))
}

// Float64 returns a uniform draw in [0,1).
func (s *Source) Float64() float64 { return s.r.Float64() }

// Intn returns a uniform draw in [0,n).
func (s *Source) Intn(n int) int { return s.r.Intn(n) }

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool { return s.r.Float64() < p }

// Uniform returns a uniform draw in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.r.Float64()
}

// Normal returns a normal draw with the given mean and standard deviation.
func (s *Source) Normal(mean, sd float64) float64 {
	return mean + sd*s.r.NormFloat64()
}

// BoundedNormal returns a normal draw clamped to [lo, hi].
func (s *Source) BoundedNormal(mean, sd, lo, hi float64) float64 {
	x := s.Normal(mean, sd)
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Exponential returns an exponential draw with the given mean.
func (s *Source) Exponential(mean float64) float64 {
	return s.r.ExpFloat64() * mean
}

// LogNormal returns a draw from a log-normal distribution parameterised by
// the mean and standard deviation of the *resulting* distribution (not of
// the underlying normal), which is the natural way to express "sessions
// average 1.5 h with a heavy tail".
func (s *Source) LogNormal(mean, sd float64) float64 {
	if mean <= 0 {
		return 0
	}
	v := sd * sd
	mu := math.Log(mean * mean / math.Sqrt(v+mean*mean))
	sigma := math.Sqrt(math.Log(1 + v/(mean*mean)))
	return math.Exp(mu + sigma*s.r.NormFloat64())
}

// Poisson returns a Poisson draw with the given mean using Knuth's method
// for small means and a normal approximation for large ones.
func (s *Source) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		x := s.Normal(mean, math.Sqrt(mean))
		if x < 0 {
			return 0
		}
		return int(x + 0.5)
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= s.r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Pick returns a uniformly random element index weighted by weights.
// It panics if weights is empty or sums to a non-positive value.
func (s *Source) Pick(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		panic("rng: Pick needs positive total weight")
	}
	x := s.r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Shuffle permutes the n elements using swap, like rand.Shuffle.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	s.r.Shuffle(n, swap)
}
