package trace

import (
	"testing"
	"time"
)

// growing returns a commit-ordered dataset of three machines, iters
// iterations, and a function that appends the next iteration to it the
// way a collector's sink does.
func growing(iters int) (*Dataset, func()) {
	start := time.Date(2003, 10, 6, 0, 0, 0, 0, time.UTC)
	d := &Dataset{Start: start, End: start.Add(time.Hour * 24), Period: 15 * time.Minute}
	for _, id := range []string{"m2", "m0", "m1"} {
		d.Machines = append(d.Machines, MachineInfo{ID: id})
	}
	next := func() {
		i := len(d.Iterations)
		at := start.Add(time.Duration(i) * d.Period)
		for _, m := range d.Machines {
			d.Samples = append(d.Samples, Sample{Iter: i, Time: at, Machine: m.ID, BootTime: start})
		}
		d.Iterations = append(d.Iterations, Iteration{Iter: i, Start: at, Attempted: len(d.Machines)})
	}
	for i := 0; i < iters; i++ {
		next()
	}
	return d, next
}

func TestSinceContinuesEarlierClone(t *testing.T) {
	d, next := growing(2)
	a := d.ClonePrefix()
	ma, ok := a.Mark()
	if !ok {
		t.Fatal("a fresh clone is not intact")
	}
	next()
	b := d.ClonePrefix()
	ss, its, ok := b.Since(ma)
	if !ok || len(ss) != 3 || len(its) != 1 || its[0].Iter != 2 || ss[0].Iter != 2 {
		t.Fatalf("Since = %d samples, %d iterations, ok=%v; want iteration 2's 3 samples", len(ss), len(its), ok)
	}
	if &ss[0] != &b.Samples[6] {
		t.Fatal("Since's tail is not the clone's own storage")
	}
	if _, _, ok := a.Since(ma); !ok {
		t.Fatal("a clone does not continue its own mark")
	}
	if _, _, ok := b.Since(Mark{}); ok {
		t.Fatal("the zero Mark is continued")
	}
	if _, ok := d.Mark(); ok {
		t.Fatal("an origin that no ClonePrefix made reports a stamp")
	}
	other, _ := growing(3)
	if _, _, ok := other.ClonePrefix().Since(ma); ok {
		t.Fatal("a clone of another dataset continues the mark")
	}
	if _, _, ok := a.Since(func() Mark { m, _ := b.Mark(); return m }()); ok {
		t.Fatal("a shorter clone continues a longer one")
	}
}

// TestSinceBrokenByInPlaceEdits: every in-place reorder or edit of the
// origin, or of the clone itself, ends the continuation.
func TestSinceBrokenByInPlaceEdits(t *testing.T) {
	for _, tc := range []struct {
		name   string
		origin func(*Dataset) // applied to the origin before the later clone
		clone  func(*Dataset) // applied to the later clone
	}{
		{"origin Freeze", func(o *Dataset) { o.Freeze() }, nil},
		{"origin Index", func(o *Dataset) { o.Index() }, nil},
		{"origin SortSamples", func(o *Dataset) { o.SortSamples() }, nil},
		{"origin InvalidateIndex", func(o *Dataset) { o.InvalidateIndex() }, nil},
		{"clone Freeze", nil, func(c *Dataset) { c.Freeze() }},
		{"clone InvalidateIndex", nil, func(c *Dataset) { c.InvalidateIndex() }},
		{"clone appended", nil, func(c *Dataset) { c.Samples = append(c.Samples, Sample{}) }},
		{"clone catalogue changed", nil, func(c *Dataset) { c.Machines = c.Machines[:1] }},
	} {
		d, next := growing(2)
		m, _ := d.ClonePrefix().Mark()
		next()
		if tc.origin != nil {
			tc.origin(d)
		}
		c := d.ClonePrefix()
		if tc.clone != nil {
			tc.clone(c)
		}
		if _, _, ok := c.Since(m); ok {
			t.Errorf("%s: the later clone still continues the earlier one", tc.name)
		}
	}
}

// TestFingerprintBoundsMatchesFreeze: the fingerprint of a commit-ordered
// dataset, from its sorted-order bounds alone, is the frozen index's.
func TestFingerprintBoundsMatchesFreeze(t *testing.T) {
	d, _ := growing(5)
	// Sorted order: m0 first, m2 last; m0's first commit, m2's last.
	var first, last *Sample
	for i := range d.Samples {
		s := &d.Samples[i]
		if s.Machine == "m0" && first == nil {
			first = s
		}
		if s.Machine == "m2" {
			last = s
		}
	}
	want := FingerprintBounds(d, first, last)
	if got := d.ClonePrefix().Index().Fingerprint(); got != want {
		t.Fatalf("FingerprintBounds = %x, Index().Fingerprint() = %x", want, got)
	}
	empty := &Dataset{Start: d.Start, End: d.End, Period: d.Period}
	if FingerprintBounds(empty, nil, nil) != empty.Index().Fingerprint() {
		t.Fatal("empty dataset: FingerprintBounds disagrees with the index")
	}
}
