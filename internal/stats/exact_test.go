package stats

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// ref is the math/big model of an exact accumulator: the same quantised
// observations, summed and squared without any bound.
type ref struct {
	n, dropped int64
	s, s2      big.Int
}

func (r *ref) add(x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) >= 1<<38 {
		r.dropped++
		return
	}
	q := new(big.Int).SetInt64(int64(math.RoundToEven(x * (1 << 24))))
	r.n++
	r.s.Add(&r.s, q)
	r.s2.Add(&r.s2, q.Mul(q, q))
}

// rat rounds num/(den·2^(24·k)) to the nearest float64.
func rat(num *big.Int, den int64, k uint) float64 {
	d := new(big.Int).Lsh(big.NewInt(den), 24*k)
	f, _ := new(big.Rat).SetFrac(num, d).Float64()
	return f
}

func (r *ref) mean() float64 {
	if r.n == 0 {
		return 0
	}
	return rat(&r.s, r.n, 1)
}

// variance is the exact population variance, rounded once.
func (r *ref) variance() float64 {
	if r.n < 2 {
		return 0
	}
	num := new(big.Int).Mul(big.NewInt(r.n), &r.s2)
	num.Sub(num, new(big.Int).Mul(&r.s, &r.s))
	return rat(num, r.n*r.n, 2)
}

// refMean is the exact mean of xs, rounded once.
func refMean(xs []float64) float64 {
	var r ref
	for _, x := range xs {
		r.add(x)
	}
	return r.mean()
}

// check holds an accumulator fed xs to the math/big model.
func (r *ref) check(t *testing.T, got Running) {
	t.Helper()
	if got.N() != r.n || got.Dropped() != r.dropped {
		t.Fatalf("n=%d dropped=%d, want %d/%d", got.N(), got.Dropped(), r.n, r.dropped)
	}
	if m, want := got.Mean(), r.mean(); m != want {
		t.Fatalf("Mean = %v, want %v", m, want)
	}
	if s, want := got.Total(), rat(&r.s, 1, 1); s != want {
		t.Fatalf("Total = %v, want %v", s, want)
	}
	// Var is an exact integer rounded, then divided by n², itself
	// rounded: three roundings, a few ulps at most.
	if v, want := got.Var(), r.variance(); math.Abs(v-want) > 4*0x1p-52*want {
		t.Fatalf("Var = %v, want %v", v, want)
	}
}

// FuzzExactAccumulator: arbitrary float64s (non-finite and out-of-range
// ones included) leave identical accumulator state whether fed whole, in
// order, or permuted and dealt at random into parts merged in a random
// order — and give the mean, total and variance of the math/big model.
func FuzzExactAccumulator(f *testing.F) {
	seed := func(xs ...float64) []byte {
		b := make([]byte, 0, 8*len(xs))
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(seed(1, 2, 3, 4.5), int64(1))
	// The range bound is exclusive: 2^38 is dropped, the float64 below it
	// is kept, whatever the sign.
	f.Add(seed(0x1p38, -0x1p38, 0x1p38-0x1p-15, -(0x1p38-0x1p-15), 7, math.MaxFloat64), int64(2))
	f.Add(seed(math.NaN(), math.Inf(1), math.Inf(-1), 0.5, -1e-300), int64(3))
	f.Add(seed(0x1p-25, 3*0x1p-25, -0x1p-25, 5e-324, 0.1, 0.2, 0.3), int64(4))
	f.Add(seed(1.25e11, 2.5e11, -2.7e11, 97.76519540671192, 59.658139652129805), int64(5))
	// A float64 sum of these drifts with the order of addition.
	f.Add(seed(1e10, 0.1, -1e10, 0.2, 3.3, 1e-3, 7e9), int64(6))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		xs := make([]float64, len(data)/8)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		var whole Running
		var sum Sum
		var model ref
		for _, x := range xs {
			whole.Add(x)
			sum.Add(x)
			model.add(x)
		}
		if sum != whole.Sum {
			t.Fatalf("Sum %+v != Running's %+v", sum, whole.Sum)
		}
		model.check(t, whole)

		rng := rand.New(rand.NewSource(seed))
		perm := rng.Perm(len(xs))
		parts := make([]Running, 1+rng.Intn(4))
		for _, i := range perm {
			parts[rng.Intn(len(parts))].Add(xs[i])
		}
		var merged Running
		for _, k := range rng.Perm(len(parts)) {
			merged = merged.Merge(parts[k])
		}
		if merged != whole {
			t.Fatalf("split and permuted feed %+v != whole %+v", merged, whole)
		}
	})
}
