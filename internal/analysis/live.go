package analysis

import (
	"time"

	"winlab/internal/trace"
)

// Live is the analysis engine kept resident over a growing trace: the
// same accumulator All runs, fed one epoch at a time with only what the
// epoch added. A live collector publishes commit-ordered prefixes of
// one trace (ddc.DatasetSink.SnapshotEvery); Add folds the tail a prefix
// appended to the previous one, and Results finalizes without disturbing
// the engine, so an epoch costs O(new samples + machines + iterations)
// however long the trace has grown.
//
// The Results are bit-identical to All's over the same prefix: the
// per-machine state depends only on each machine's own sample order,
// which commit order keeps, and every sum across machines is exact and
// order-free (stats.Sum, stats.Running), so folding in commit order
// instead of sorted machine order changes nothing.
//
// A Live is not safe for concurrent use; the Results it returns are
// independent of it and may be shared freely.
type Live struct {
	acc        *streamAcc
	machines   []trace.MachineInfo
	iterations []trace.Iteration

	// The sorted-order bounds of the samples folded so far: the smallest
	// machine ID with its first sample, and the largest machine ID (its
	// last sample is its state's prev).
	seen   bool
	lo, hi string
	first  trace.Sample

	// The range of Iter values folded without an iteration position; a
	// record that later logs one of them would have counted them.
	skipped        bool
	skipLo, skipHi int
}

// NewLive returns an empty engine for a trace with the given header.
func NewLive(start, end time.Time, period time.Duration, machines []trace.MachineInfo, opts Options) *Live {
	machines = append([]trace.MachineInfo(nil), machines...)
	return &Live{
		acc:      newStreamAcc(start, end, period, machines, nil, opts.withDefaults()),
		machines: machines,
	}
}

// Add folds the iteration records and samples the trace appended since
// the previous Add, samples in commit order: machines interleave freely,
// but each machine's samples must come in time order, as a collector
// commits them. It reports false when the engine cannot reproduce All
// from here — a sample older than its machine's previous one, an
// iteration log that is not ascending, or a record logging an iteration
// whose samples were already folded without it — and the engine must
// then be discarded.
func (l *Live) Add(iterations []trace.Iteration, samples []trace.Sample) bool {
	a := l.acc
	if l.skipped {
		for i := range iterations {
			if it := iterations[i].Iter; it >= l.skipLo && it <= l.skipHi && a.iterIdx.of(it) < 0 {
				return false
			}
		}
	}
	added, ok := a.iterIdx.extend(iterations)
	if !ok {
		return false
	}
	for ; added > 0; added-- {
		a.iters = append(a.iters, iterSum{})
	}
	l.iterations = append(l.iterations, iterations...)

	for i := range samples {
		s := &samples[i]
		m := a.mach[s.Machine]
		var prev *trace.Sample
		if m == nil {
			m = a.newMachine(s.Machine, s)
			l.bound(s)
		} else {
			if s.Time.Before(m.prev.Time) {
				return false
			}
			prev = &m.prev
		}
		if a.addSample(m, prev, s) < 0 {
			l.skip(s.Iter)
		}
		m.prev, m.hasPrev = *s, true
	}
	return true
}

// bound updates the sorted-order bounds with a machine's first sample.
func (l *Live) bound(s *trace.Sample) {
	if !l.seen || s.Machine < l.lo {
		l.lo, l.first = s.Machine, *s
	}
	if !l.seen || s.Machine > l.hi {
		l.hi = s.Machine
	}
	l.seen = true
}

func (l *Live) skip(iter int) {
	if !l.skipped {
		l.skipped, l.skipLo, l.skipHi = true, iter, iter
		return
	}
	l.skipLo, l.skipHi = min(l.skipLo, iter), max(l.skipHi, iter)
}

// Bounds returns the first and last samples of the folded trace in
// (machine, time) order — what trace.FingerprintBounds digests — or nils
// before any sample. They point into the engine: read them before the
// next Add.
func (l *Live) Bounds() (first, last *trace.Sample) {
	if !l.seen {
		return nil, nil
	}
	return &l.first, &l.acc.mach[l.hi].prev
}

// Results finalizes everything folded so far. The engine is unchanged
// and may go on folding.
func (l *Live) Results() *Results { return l.acc.finalize(l.machines, l.iterations) }
