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

// StdDev is the two-pass population standard deviation of xs, the
// reference Running's one-pass Welford update is checked against.
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

func TestRunningMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1000)
	var r Running
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 7
		r.Add(xs[i])
	}
	if !almostEq(r.Mean(), Mean(xs), 1e-9) {
		t.Errorf("mean %v != %v", r.Mean(), Mean(xs))
	}
	if !almostEq(r.StdDev(), StdDev(xs), 1e-9) {
		t.Errorf("sd %v != %v", r.StdDev(), StdDev(xs))
	}
}

func TestRunningMergeProperty(t *testing.T) {
	// Merging two accumulators must equal accumulating the concatenation.
	// Inputs are folded into a moderate range: squared terms of 1e308-scale
	// values overflow float64 in any variance algorithm, which is not the
	// property under test.
	fold := func(x float64) float64 {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0
		}
		return math.Mod(x, 1e6)
	}
	f := func(a, b []float64) bool {
		var ra, rb, rc Running
		for _, x := range a {
			x = fold(x)
			ra.Add(x)
			rc.Add(x)
		}
		for _, x := range b {
			x = fold(x)
			rb.Add(x)
			rc.Add(x)
		}
		m := ra.Merge(rb)
		if m.N() != rc.N() {
			return false
		}
		if m.N() == 0 {
			return true
		}
		tol := 1e-6 * (1 + math.Abs(rc.Mean()))
		return almostEq(m.Mean(), rc.Mean(), tol) &&
			almostEq(m.Var(), rc.Var(), 1e-4*(1+rc.Var()))
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
