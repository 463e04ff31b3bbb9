package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev is the two-pass population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// onGrid rounds x to the accumulators' quantum, 2^-24, the value they
// actually accumulate.
func onGrid(x float64) float64 { return math.RoundToEven(x*(1<<24)) / (1 << 24) }

func TestRunningEmpty(t *testing.T) {
	var r Running
	if r.N() != 0 || r.Mean() != 0 || r.StdDev() != 0 || r.Var() != 0 {
		t.Errorf("zero Running not neutral: %v", r)
	}
}

func TestRunningSingle(t *testing.T) {
	var r Running
	r.Add(42)
	if r.N() != 1 || r.Mean() != 42 || r.StdDev() != 0 {
		t.Errorf("single observation: %v", r)
	}
}

// TestRunningMatchesDirect: the mean is the exact mean of the
// quantised observations, rounded once; the standard deviation agrees
// with a two-pass computation over the same quantised values.
func TestRunningMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1000)
	var r Running
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 7
		r.Add(xs[i])
		xs[i] = onGrid(xs[i])
	}
	if want := refMean(xs); r.Mean() != want {
		t.Errorf("mean %v != %v", r.Mean(), want)
	}
	if !almostEq(r.StdDev(), StdDev(xs), 1e-12) {
		t.Errorf("sd %v != %v", r.StdDev(), StdDev(xs))
	}
}

func TestRunningMergeProperty(t *testing.T) {
	// Merging two accumulators must equal accumulating the concatenation,
	// state for state, whatever the magnitudes (out-of-range values are
	// dropped on both sides alike).
	f := func(a, b []float64) bool {
		var ra, rb, rc Running
		for _, x := range a {
			ra.Add(x)
			rc.Add(x)
		}
		for _, x := range b {
			rb.Add(x)
			rc.Add(x)
		}
		return ra.Merge(rb) == rc && rb.Merge(ra) == rc
	}
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestSampleVariance(t *testing.T) {
	var r Running
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(x)
	}
	if !almostEq(r.Var(), 4, 1e-12) {
		t.Errorf("population var = %v, want 4", r.Var())
	}
	if !almostEq(r.SampleVar(), 32.0/7, 1e-12) {
		t.Errorf("sample var = %v, want %v", r.SampleVar(), 32.0/7)
	}
	if !almostEq(r.SampleStdDev(), math.Sqrt(32.0/7), 1e-12) {
		t.Errorf("sample sd = %v", r.SampleStdDev())
	}
}

func TestNines(t *testing.T) {
	cases := []struct{ ratio, want float64 }{
		{0.9, 1}, {0.99, 2}, {0.999, 3}, {0, 0}, {-1, 0},
	}
	for _, c := range cases {
		if got := Nines(c.ratio); !almostEq(got, c.want, 1e-9) {
			t.Errorf("Nines(%v) = %v, want %v", c.ratio, got, c.want)
		}
	}
	if got := Nines(1); got != 9 {
		t.Errorf("Nines(1) = %v, want clamp to 9", got)
	}
	if got := Nines(1.5); got != 9 {
		t.Errorf("Nines(1.5) = %v, want clamp to 9", got)
	}
}

func TestNinesMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		a = math.Mod(math.Abs(a), 1)
		b = math.Mod(math.Abs(b), 1)
		if a > b {
			a, b = b, a
		}
		return Nines(a) <= Nines(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 10) != 5 || Clamp(-1, 0, 10) != 0 || Clamp(11, 0, 10) != 10 {
		t.Error("Clamp broken")
	}
}

func TestMeanStdDevEdgeCases(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if StdDev([]float64{5}) != 0 {
		t.Error("StdDev of singleton != 0")
	}
}
