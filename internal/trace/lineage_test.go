package trace

import (
	"slices"
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

// deepCopy is a dataset with the same contents as d and storage of its
// own, taken as the reference a view must keep equalling.
func deepCopy(d *Dataset) *Dataset {
	return &Dataset{
		Start: d.Start, End: d.End, Period: d.Period,
		Machines:   slices.Clone(d.Machines),
		Iterations: slices.Clone(d.Iterations),
		Samples:    slices.Clone(d.Samples),
	}
}

func sameContents(a, b *Dataset) bool {
	return a.Start.Equal(b.Start) && a.End.Equal(b.End) && a.Period == b.Period &&
		slices.Equal(a.Machines, b.Machines) && slices.Equal(a.Iterations, b.Iterations) &&
		slices.Equal(a.Samples, b.Samples)
}

// TestViewsStayImmutable walks every way a view or its origin can be
// written — the origin's appends within its capacity and past it, the
// origin's sort, a view's freeze, a view's append — and checks after
// each that every dataset still equals its deep-copied reference and
// that Since still hands out the exact tail between two views.
func TestViewsStayImmutable(t *testing.T) {
	d, next := growing(2)
	d.Samples = slices.Grow(d.Samples, len(d.Machines)) // room for one more iteration
	ref, refNext := growing(2)                          // what d holds, built apart

	v1 := d.ClonePrefix()
	m1, _ := v1.Mark()
	next() // within capacity: v1 and v2 share one array
	refNext()
	v2 := d.ClonePrefix()
	m2, _ := v2.Mark()
	r1, r2 := deepCopy(v1), deepCopy(v2)
	n1, n2 := len(v1.Samples), len(v2.Samples) // where each view's tail starts
	if &v1.Samples[0] != &v2.Samples[0] || &v2.Samples[0] != &d.Samples[0] {
		t.Fatal("views of an origin that grew within its capacity do not share its array")
	}

	var v3, r3 *Dataset
	var m3 Mark
	check := func(step string) {
		t.Helper()
		for _, c := range []struct {
			name      string
			got, want *Dataset
		}{{"origin", d, ref}, {"v1", v1, r1}, {"v2", v2, r2}, {"v3", v3, r3}} {
			if c.got != nil && !sameContents(c.got, c.want) {
				t.Fatalf("after %s: %s differs from its reference", step, c.name)
			}
		}
		tail := func(v *Dataset, m Mark, r *Dataset, from int) {
			t.Helper()
			if _, ok := v.Mark(); !ok {
				return // no longer intact: Since refuses, checked below
			}
			ss, its, ok := v.Since(m)
			if !ok || !slices.Equal(ss, r.Samples[from:]) || !slices.Equal(its, r.Iterations[len(r.Iterations)-len(its):]) {
				t.Fatalf("after %s: Since = %d samples, %d iterations, ok=%v; want the %d-sample tail",
					step, len(ss), len(its), ok, len(r.Samples)-from)
			}
		}
		tail(v2, m1, r2, n1)
		if v3 != nil {
			tail(v3, m2, r3, n2)
		}
	}
	check("appending within capacity")

	for c := cap(d.Samples); cap(d.Samples) == c; {
		next() // past capacity: the origin moves to a new array
		refNext()
	}
	v3 = d.ClonePrefix()
	m3, _ = v3.Mark()
	r3 = deepCopy(v3)
	check("appending past capacity")

	d.SortSamples() // shares its array with v3
	ref.SortSamples()
	if &d.Samples[0] == &v3.Samples[0] {
		t.Fatal("sorting a shared origin reordered the view's array in place")
	}
	check("sorting the origin")

	v1.Freeze() // shares its array with v2
	r1.Freeze()
	if &v1.Samples[0] == &v2.Samples[0] {
		t.Fatal("freezing a view reordered the array it shares in place")
	}
	check("freezing v1")

	v2.Samples = append(v2.Samples, Sample{Machine: "m9"})
	r2.Samples = append(r2.Samples, Sample{Machine: "m9"})
	check("appending to v2")
	if _, _, ok := v2.Since(m1); ok {
		t.Fatal("a view that was appended to still continues an earlier one")
	}
	if _, _, ok := v3.Since(m3); !ok {
		t.Fatal("v3 no longer continues its own mark")
	}

	// An ordered view sorts without a copy; Unshare gives the origin
	// storage of its own and keeps the lineage.
	v4 := d.ClonePrefix()
	if v4.SortSamples(); &v4.Samples[0] != &d.Samples[0] {
		t.Fatal("sorting an ordered view copied it")
	}
	d.Unshare()
	if &d.Samples[0] == &v4.Samples[0] || !sameContents(d, ref) {
		t.Fatal("Unshare left the origin on the view's array or changed its contents")
	}
	check("unsharing the origin")
}
