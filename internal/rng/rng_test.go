package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := Derive(42, "stream")
	b := Derive(42, "stream")
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same (seed, name) diverged at draw %d", i)
		}
	}
}

func TestStreamIndependence(t *testing.T) {
	a := Derive(42, "alpha")
	b := Derive(42, "beta")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("differently-named streams coincide on %d/100 draws", same)
	}
}

func TestUniformBounds(t *testing.T) {
	s := New(7)
	for i := 0; i < 1000; i++ {
		x := s.Uniform(3, 5)
		if x < 3 || x >= 5 {
			t.Fatalf("Uniform out of range: %v", x)
		}
	}
}

func TestBoundedNormalClamps(t *testing.T) {
	s := New(7)
	for i := 0; i < 1000; i++ {
		x := s.BoundedNormal(0, 100, -1, 1)
		if x < -1 || x > 1 {
			t.Fatalf("BoundedNormal out of range: %v", x)
		}
	}
}

func TestExponentialMean(t *testing.T) {
	s := New(7)
	sum := 0.0
	const n = 20000
	for i := 0; i < n; i++ {
		sum += s.Exponential(5)
	}
	mean := sum / n
	if mean < 4.8 || mean > 5.2 {
		t.Errorf("Exponential(5) empirical mean %v", mean)
	}
}

func TestLogNormalMoments(t *testing.T) {
	s := New(7)
	const mean, sd, n = 80.0, 75.0, 50000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		x := s.LogNormal(mean, sd)
		if x <= 0 {
			t.Fatalf("LogNormal produced %v", x)
		}
		sum += x
		sum2 += x * x
	}
	m := sum / n
	v := sum2/n - m*m
	if m < mean*0.95 || m > mean*1.05 {
		t.Errorf("LogNormal mean %v, want ≈%v", m, mean)
	}
	if sdGot := math.Sqrt(v); sdGot < sd*0.85 || sdGot > sd*1.15 {
		t.Errorf("LogNormal sd %v, want ≈%v", sdGot, sd)
	}
}

func TestLogNormalZeroMean(t *testing.T) {
	s := New(7)
	if got := s.LogNormal(0, 10); got != 0 {
		t.Errorf("LogNormal(0, ·) = %v, want 0", got)
	}
}

func TestPoissonSmallMean(t *testing.T) {
	s := New(7)
	const lambda, n = 3.0, 50000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		k := float64(s.Poisson(lambda))
		sum += k
		sum2 += k * k
	}
	m := sum / n
	v := sum2/n - m*m
	if m < 2.9 || m > 3.1 {
		t.Errorf("Poisson(3) mean %v", m)
	}
	if v < 2.7 || v > 3.3 { // Poisson variance equals its mean
		t.Errorf("Poisson(3) variance %v", v)
	}
}

func TestPoissonLargeMeanUsesApproximation(t *testing.T) {
	s := New(7)
	const lambda, n = 100.0, 20000
	sum := 0.0
	for i := 0; i < n; i++ {
		k := s.Poisson(lambda)
		if k < 0 {
			t.Fatalf("negative Poisson draw %d", k)
		}
		sum += float64(k)
	}
	if m := sum / n; m < 98 || m > 102 {
		t.Errorf("Poisson(100) mean %v", m)
	}
}

func TestPoissonZero(t *testing.T) {
	s := New(7)
	if s.Poisson(0) != 0 || s.Poisson(-3) != 0 {
		t.Error("Poisson of non-positive mean must be 0")
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(7)
	hits := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if s.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.23 || frac > 0.27 {
		t.Errorf("Bool(0.25) frequency %v", frac)
	}
	if s.Bool(0) {
		t.Error("Bool(0) returned true")
	}
}

func TestPickWeights(t *testing.T) {
	s := New(7)
	counts := [3]int{}
	const n = 30000
	for i := 0; i < n; i++ {
		counts[s.Pick([]float64{1, 2, 1})]++
	}
	if f := float64(counts[1]) / n; f < 0.47 || f > 0.53 {
		t.Errorf("middle weight frequency %v, want ≈0.5", f)
	}
	// Zero-weight entries are never picked.
	for i := 0; i < 1000; i++ {
		if s.Pick([]float64{0, 1, 0}) != 1 {
			t.Fatal("picked a zero-weight entry")
		}
	}
}

func TestPickPanics(t *testing.T) {
	s := New(7)
	defer func() {
		if recover() == nil {
			t.Error("Pick with zero total weight did not panic")
		}
	}()
	s.Pick([]float64{0, 0})
}

func TestShuffleIsPermutation(t *testing.T) {
	s := New(7)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	s.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := map[int]bool{}
	for _, x := range xs {
		seen[x] = true
	}
	if len(seen) != 8 {
		t.Errorf("shuffle lost elements: %v", xs)
	}
}
