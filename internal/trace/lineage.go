package trace

import (
	"slices"
	"sync/atomic"
)

// Mark is a stamped view's place in its origin's history: which dataset
// it was cut from, the origin's generation at the cut, and how many
// samples, iterations and machines the cut held. ClonePrefix stamps every
// view it cuts; Since compares two stamps. The zero Mark names no cut,
// and no dataset continues it.
type Mark struct {
	origin     uint64 // the origin's lineage ID; 0 for an unstamped dataset
	gen        uint64 // the origin's generation at the cut
	samples    int
	iterations int
	machines   int
}

// lineIDs numbers the datasets that have been cloned from, so a stamp
// names its origin without holding a pointer to it.
var lineIDs atomic.Uint64

// ClonePrefix returns a view of d's current prefix: a dataset whose
// Samples, Iterations and Machines are d's own slices cut to their
// current lengths and capacities (s[:n:n]). It copies no sample, so it
// costs the same at any length. The view stays what it was when cut
// while d keeps growing, because nothing writes an index a view covers
// (DESIGN.md §13.1): d's appends land past every view's length or, once
// d's capacity runs out, in a new array; a view's own append always
// reallocates (its capacity is its length); and an in-place reorder of
// either side (SortSamples, Freeze) first moves that side's samples into
// a fresh array. Both d and the view are marked as sharing storage for
// that reason, until Unshare gives d storage of its own. A view is
// read-only otherwise: edit fields in place only on a dataset nobody
// else holds a view of or into. Samples are in d's current order — a
// collector's dataset is in commit order, and so is the view.
//
// The view carries a stamp (see Mark): d's identity, d's generation and
// the view's own lengths. A later ClonePrefix of the same d, taken
// before anything reorders or edits d in place, continues the earlier
// view: Since hands out exactly the samples and iterations d appended in
// between.
func (d *Dataset) ClonePrefix() *Dataset {
	d.idxMu.Lock()
	defer d.idxMu.Unlock()
	if d.lineID == 0 {
		d.lineID = lineIDs.Add(1)
	}
	d.shared = true
	n, k, m := len(d.Samples), len(d.Iterations), len(d.Machines)
	return &Dataset{
		Start:      d.Start,
		End:        d.End,
		Period:     d.Period,
		Machines:   d.Machines[:m:m],
		Iterations: d.Iterations[:k:k],
		Samples:    d.Samples[:n:n],
		shared:     true,
		stamp:      Mark{origin: d.lineID, gen: d.gen, samples: n, iterations: k, machines: m},
	}
}

// Unshare gives d slices of its own if ClonePrefix ever cut a view of d,
// or d is such a view: Samples, Iterations and Machines are copied to
// fresh arrays, after which d's owner may edit them in place without
// reaching into any view. Contents, order, the stamp and the lineage are
// unchanged, so views cut before still continue into views cut after.
// A dataset that never shared storage is left as it is, at no cost.
func (d *Dataset) Unshare() {
	d.idxMu.Lock()
	defer d.idxMu.Unlock()
	if !d.shared {
		return
	}
	d.Samples = slices.Clone(d.Samples)
	d.Iterations = slices.Clone(d.Iterations)
	d.Machines = slices.Clone(d.Machines)
	d.shared = false
}

// Mark returns the stamp ClonePrefix put on d, and whether d still is the
// prefix it names. ok is false for a dataset no ClonePrefix made, and for
// a view that was since sorted, frozen, invalidated or resized.
func (d *Dataset) Mark() (Mark, bool) {
	d.idxMu.Lock()
	defer d.idxMu.Unlock()
	return d.stamp, d.intactLocked()
}

// Since returns the samples and iteration records d holds beyond the cut
// m names: the tails its origin appended between the two cuts. It
// answers only when d is an intact stamped view (see Mark) of the same
// origin as m, at the same generation, with the same catalogue, and at
// least as long; otherwise ok is false and d must be taken whole. The
// tails are subslices of d, and so of d's origin (shared storage; do not
// mutate).
func (d *Dataset) Since(m Mark) (samples []Sample, iterations []Iteration, ok bool) {
	d.idxMu.Lock()
	defer d.idxMu.Unlock()
	s := d.stamp
	if !d.intactLocked() || m.origin != s.origin || m.gen != s.gen || m.machines != s.machines ||
		m.samples > s.samples || m.iterations > s.iterations {
		return nil, nil, false
	}
	return d.Samples[m.samples:], d.Iterations[m.iterations:], true
}

// intactLocked reports whether d is a stamped view that nothing has
// reordered, edited or resized since ClonePrefix made it; the caller
// holds d.idxMu.
func (d *Dataset) intactLocked() bool {
	s := d.stamp
	return s.origin != 0 && d.gen == 0 && len(d.Samples) == s.samples &&
		len(d.Iterations) == s.iterations && len(d.Machines) == s.machines
}
