package stats

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{0, 1.9, 2, 5.5, 9.99} {
		h.Add(x)
	}
	want := []int64{2, 1, 1, 0, 1}
	for i, c := range h.Counts {
		if c != want[i] {
			t.Errorf("bin %d = %d, want %d", i, c, want[i])
		}
	}
	if h.Total() != 5 {
		t.Errorf("Total = %d", h.Total())
	}
	if h.BinWidth() != 2 {
		t.Errorf("BinWidth = %v", h.BinWidth())
	}
	if h.BinLo(3) != 6 {
		t.Errorf("BinLo(3) = %v", h.BinLo(3))
	}
}

func TestHistogramOutOfRange(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	h.Add(-1)
	h.Add(10) // hi is exclusive
	h.Add(100)
	h.Add(5)
	if h.under != 1 || h.over != 2 {
		t.Errorf("under=%d over=%d", h.under, h.over)
	}
	if got := h.InRangeFraction(); got != 0.25 {
		t.Errorf("InRangeFraction = %v, want 0.25", got)
	}
}

func TestHistogramEmptyFraction(t *testing.T) {
	h := NewHistogram(0, 1, 1)
	if h.InRangeFraction() != 0 {
		t.Error("empty histogram fraction != 0")
	}
}

func TestHistogramPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewHistogram(0, 10, 0) },
		func() { NewHistogram(5, 5, 3) },
		func() { NewHistogram(10, 0, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestHistogramNeverLosesObservations(t *testing.T) {
	f := func(xs []float64) bool {
		h := NewHistogram(-100, 100, 17)
		n := int64(0)
		for _, x := range xs {
			if x != x { // NaN would be ambiguous; skip
				continue
			}
			h.Add(x)
			n++
		}
		return h.Total()+h.under+h.over == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHistogramString(t *testing.T) {
	h := NewHistogram(0, 4, 2)
	h.Add(1)
	h.Add(1)
	h.Add(3)
	h.Add(99)
	s := h.String()
	if !strings.Contains(s, "####") {
		t.Errorf("expected full bar in:\n%s", s)
	}
	if !strings.Contains(s, "inf") {
		t.Errorf("expected overflow line in:\n%s", s)
	}
}
