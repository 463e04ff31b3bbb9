package stats

import (
	"math"
	"testing"
	"time"
)

// The collectors occasionally emit garbage — a division by a zero
// uptime, a counter wrap turned into ±Inf — and one poisoned value must
// not NaN an entire table. The package-wide policy is skip-and-count:
// non-finite inputs are dropped, Running's Dropped counter records how
// many, and every statistic is computed over the finite values only.

func TestRunningSkipsNonFinite(t *testing.T) {
	var r Running
	r.Add(1)
	r.Add(math.NaN())
	r.Add(2)
	r.Add(math.Inf(1))
	r.Add(math.Inf(-1))
	r.Add(3)
	if r.N() != 3 {
		t.Fatalf("N = %d, want 3", r.N())
	}
	if r.Dropped() != 3 {
		t.Fatalf("Dropped = %d, want 3", r.Dropped())
	}
	if got := r.Mean(); got != 2 {
		t.Errorf("Mean = %v, want 2", got)
	}
	if math.IsNaN(r.StdDev()) {
		t.Errorf("StdDev poisoned: %v", r.StdDev())
	}
}

func TestRunningMergeCarriesDropped(t *testing.T) {
	var a, b, empty Running
	a.Add(1)
	a.Add(math.NaN())
	b.Add(math.Inf(1))
	b.Add(2)
	m := a.Merge(b)
	if m.N() != 2 || m.Dropped() != 2 {
		t.Errorf("merge: N=%d Dropped=%d, want 2/2", m.N(), m.Dropped())
	}
	// The fast paths (either side empty of finite values) must carry
	// dropped counts too.
	if got := empty.Merge(a).Dropped(); got != 1 {
		t.Errorf("empty.Merge(a).Dropped = %d, want 1", got)
	}
	if got := a.Merge(empty).Dropped(); got != 1 {
		t.Errorf("a.Merge(empty).Dropped = %d, want 1", got)
	}
	var justDrops Running
	justDrops.Add(math.NaN())
	if got := a.Merge(justDrops).Dropped(); got != 2 {
		t.Errorf("a.Merge(justDrops).Dropped = %d, want 2", got)
	}
}

// TestHistogramNaNRegression pins the fixed panic: int(NaN) used to
// produce a huge negative bin index.
func TestHistogramNaNRegression(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	h.Add(math.NaN()) // panicked before the guard
	h.Add(math.Inf(1))
	h.Add(math.Inf(-1))
	h.Add(4)
	if all := h.Total() + h.under + h.over; all != 3 { // ±Inf still land in the out-of-range tallies; NaN is skipped
		t.Errorf("total observations = %d, want 3", all)
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram(0, 10, 5)
	b := NewHistogram(0, 10, 5)
	for _, x := range []float64{-1, 1, 3} {
		a.Add(x)
	}
	for _, x := range []float64{5, 7, 11, math.NaN()} {
		b.Add(x)
	}
	a.Merge(b)
	want := NewHistogram(0, 10, 5)
	for _, x := range []float64{-1, 1, 3, 5, 7, 11, math.NaN()} {
		want.Add(x)
	}
	if a.Total() != want.Total() || a.under != want.under || a.over != want.over {
		t.Errorf("merged tallies %d/%d/%d, want %d/%d/%d",
			a.Total(), a.under, a.over, want.Total(), want.under, want.over)
	}
	for i := range a.Counts {
		if a.Counts[i] != want.Counts[i] {
			t.Errorf("bin %d: %d != %d", i, a.Counts[i], want.Counts[i])
		}
	}
	a.Merge(nil) // nil-safe no-op
	if a.Total() != want.Total() {
		t.Errorf("Merge(nil) changed counts")
	}
}

func TestHistogramMergeShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("merging mismatched histograms did not panic")
		}
	}()
	a := NewHistogram(0, 10, 5)
	a.Merge(NewHistogram(0, 10, 6))
}

func TestWeeklyProfileMerge(t *testing.T) {
	base := time.Date(2003, 10, 6, 0, 0, 0, 0, time.UTC) // a Monday
	var a, b, want WeeklyProfile
	for i := 0; i < 50; i++ {
		at := base.Add(time.Duration(i) * 37 * time.Minute)
		x := float64(i%13) * 1.5
		want.Add(at, x)
		if i%2 == 0 {
			a.Add(at, x)
		} else {
			b.Add(at, x)
		}
	}
	a.Merge(&b)
	for i := range a.Slots {
		if a.Slots[i].N() != want.Slots[i].N() {
			t.Fatalf("slot %d: N %d != %d", i, a.Slots[i].N(), want.Slots[i].N())
		}
		if a.Slots[i] != want.Slots[i] {
			t.Fatalf("slot %d: mean %v != %v", i, a.Slots[i].Mean(), want.Slots[i].Mean())
		}
	}
}
