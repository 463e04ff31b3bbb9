package probe

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
	"time"
)

// checkFixed compares appendFixed with its oracle, strconv's
// multiprecision 'f' formatting, at every precision the probe renders
// and one beyond the integer envelope.
func checkFixed(t *testing.T, val float64) {
	t.Helper()
	var got, want [40]byte
	for prec := 0; prec <= 4; prec++ {
		g := appendFixed(got[:0], val, prec)
		w := strconv.AppendFloat(want[:0], val, 'f', prec, 64)
		if string(g) != string(w) {
			t.Fatalf("appendFixed(%v [%#016x], prec %d) = %q, strconv gives %q",
				val, math.Float64bits(val), prec, g, w)
		}
	}
}

func TestAppendFixedEdges(t *testing.T) {
	for _, val := range []float64{
		0, math.Copysign(0, -1), 1, 9.5, 99.95, 999.9995,
		0.5, 1.5, 2.5, 0.125, 0.375, 0.0005, 0.0015, 0.0025, 0.05, 0.25, 0.45, // ties and near-ties
		0.1, 0.7, 74.5, 74.53, 1e-4, 4.8828125e-4, 1e-19, 0x1p-63, 0x1p-64,
		1 << 52, 1<<52 + 0.5, 1<<53 - 1, 1 << 53, 1<<53 + 2, 1e15, 1e18, 1e19,
		math.MaxFloat64, math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-1023,
		-1.5, -0.0005, math.Inf(1), math.Inf(-1), math.NaN(),
	} {
		checkFixed(t, val)
	}
}

// TestAppendFixedSeeded draws a million values from the four shapes the
// probe renders — a Duration's seconds, gigabytes to three decimals,
// percent-like values — and from random bit patterns: mostly with the
// exponent held within reach of the integer envelope (2^-70 … 2^70, both
// of its edges included), every sixteenth one unconstrained (those cost
// the oracle hundreds of digits each).
func TestAppendFixedSeeded(t *testing.T) {
	n := 250_000
	if testing.Short() {
		n = 20_000
	}
	rnd := rand.New(rand.NewSource(20))
	for i := 0; i < n; i++ {
		checkFixed(t, time.Duration(rnd.Int63n(int64(100*24*time.Hour))).Seconds())
		checkFixed(t, float64(rnd.Intn(500_000))/1000)
		checkFixed(t, 100*rnd.Float64())
		bits := rnd.Uint64()
		if i%16 != 0 {
			bits = bits&(1<<52-1) | uint64(1023-70+rnd.Intn(141))<<52
		}
		checkFixed(t, math.Float64frombits(bits))
	}
}

// FuzzAppendFixed explores bit patterns beyond the seeded draws; the
// committed corpus under testdata/fuzz replays on every plain `go test`.
func FuzzAppendFixed(f *testing.F) {
	for _, val := range []float64{0, 0.5, 2.5, 0.0005, 74.53, 86400.1, 1 << 53, 1e18, -1.5} {
		f.Add(math.Float64bits(val))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		checkFixed(t, math.Float64frombits(bits))
	})
}

// BenchmarkAppendFixed is the per-value cost next to the strconv call it
// replaces, on an uptime-shaped value.
func BenchmarkAppendFixed(b *testing.B) {
	val := (37*time.Hour + 1234567*time.Microsecond).Seconds()
	buf := make([]byte, 0, 32)
	b.Run("fixed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf = appendFixed(buf[:0], val, 1)
		}
	})
	b.Run("strconv", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf = strconv.AppendFloat(buf[:0], val, 'f', 1, 64)
		}
	})
}
