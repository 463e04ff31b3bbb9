package trace

import "sync/atomic"

// Mark is a stamped clone's place in its origin's history: which dataset
// it was cut from, the origin's generation at the cut, and how many
// samples, iterations and machines the cut held. ClonePrefix stamps every
// copy it makes; Since compares two stamps. The zero Mark names no cut,
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

// ClonePrefix deep-copies d: the copy shares no slice storage with d, so
// its owner can freeze, analyse and serve it while d keeps growing.
// Sample, iteration and machine structs are copied by value (their
// string fields are immutable), in d's current order — a collector's
// dataset is in commit order, and so is the copy.
//
// The copy carries a stamp (see Mark): d's identity, d's generation and
// the copy's own lengths. A later ClonePrefix of the same d, taken
// before anything reorders or edits d in place, continues the earlier
// copy: Since hands out exactly the samples and iterations d appended in
// between.
func (d *Dataset) ClonePrefix() *Dataset {
	d.idxMu.Lock()
	defer d.idxMu.Unlock()
	if d.lineID == 0 {
		d.lineID = lineIDs.Add(1)
	}
	return &Dataset{
		Start:      d.Start,
		End:        d.End,
		Period:     d.Period,
		Machines:   append([]MachineInfo(nil), d.Machines...),
		Iterations: append([]Iteration(nil), d.Iterations...),
		Samples:    append([]Sample(nil), d.Samples...),
		stamp: Mark{
			origin:     d.lineID,
			gen:        d.gen,
			samples:    len(d.Samples),
			iterations: len(d.Iterations),
			machines:   len(d.Machines),
		},
	}
}

// Mark returns the stamp ClonePrefix put on d, and whether d still is the
// prefix it names. ok is false for a dataset no ClonePrefix made, and for
// a copy that was since sorted, frozen, invalidated or resized.
func (d *Dataset) Mark() (Mark, bool) {
	d.idxMu.Lock()
	defer d.idxMu.Unlock()
	return d.stamp, d.intactLocked()
}

// Since returns the samples and iteration records d holds beyond the cut
// m names: the tails its origin appended between the two copies. It
// answers only when d is an intact stamped copy (see Mark) of the same
// origin as m, at the same generation, with the same catalogue, and at
// least as long; otherwise ok is false and d must be taken whole. The
// tails are subslices of d (shared storage; do not mutate).
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

// intactLocked reports whether d is a stamped copy that nothing has
// reordered, edited or resized since ClonePrefix made it; the caller
// holds d.idxMu.
func (d *Dataset) intactLocked() bool {
	s := d.stamp
	return s.origin != 0 && d.gen == 0 && len(d.Samples) == s.samples &&
		len(d.Iterations) == s.iterations && len(d.Machines) == s.machines
}
