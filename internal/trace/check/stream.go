package check

import (
	"time"

	"winlab/internal/trace"
)

// Stream validates samples and iteration records incrementally, in the
// order a collector commits them — live validation is one
// ddc.DatasetSink.Tap that forwards to a Stream. It keeps one Sample
// value per machine (the last committed one) and a small pending
// per-iteration tally; in steady state it performs no per-sample
// allocation on the clean path (violation messages allocate, but only
// when something is wrong).
//
// A Stream checks everything the batch Check does except three things:
// the index-agreement invariant (there is no frozen index
// mid-collection); the catalogue invariants, unknown-machine and
// lifetime-violation (a Stream has no machine catalogue); and the
// iteration-window bounds when no period grid is configured.
// Because samples arrive before their iteration record is finalised,
// the sample-bounds check uses the period grid (iteration i collects in
// [start+i·period, start+(i+1)·period)) rather than the recorded
// [Start, End]; Options.NoAlignment disables it for wall-clock
// collectors that drift off the grid.
//
// A Stream is not safe for concurrent use; a sink tap calls it under
// the sink's commit lock.
type Stream struct {
	start  time.Time
	end    time.Time
	period time.Duration
	opts   Options
	r      Report

	last     map[string]trace.Sample // per machine: last committed sample
	pending  map[int]int             // iteration → samples committed, awaiting the record
	prevIter trace.Iteration         // last iteration record seen
	haveIter bool
}

// NewStream returns a streaming checker for a collection run covering
// [start, end] with the given sampling period. A zero end disables the
// upper experiment bound; a zero period disables the grid-based
// alignment and window checks.
func NewStream(start, end time.Time, period time.Duration, opts Options) *Stream {
	s := &Stream{
		start:  start,
		end:    end,
		period: period,
		opts:   opts,
		last:   make(map[string]trace.Sample),
	}
	if !opts.NoAccounting {
		s.pending = make(map[int]int)
	}
	s.r.limit = opts.limit()
	return s
}

// Sample validates one committed sample against the machine's previous
// sample and the experiment bounds. It returns the number of new
// violations it found (zero on the clean path).
func (st *Stream) Sample(s *trace.Sample) int {
	before := st.r.Total
	st.r.Samples++

	if !st.start.IsZero() && s.Time.Before(st.start) || !st.end.IsZero() && s.Time.After(st.end) {
		st.r.addf(KindSampleBounds, s.Machine, s.Iter, "sample time %s outside experiment [%s, %s]",
			fmtT(s.Time), fmtT(st.start), fmtT(st.end))
	} else if st.period > 0 && !st.opts.NoAlignment && s.Iter >= 0 {
		// The iteration record is not committed yet; bound the sample by
		// its iteration's period window on the grid instead.
		itStart := st.start.Add(time.Duration(s.Iter) * st.period)
		switch off := s.Time.Sub(itStart); {
		case off < 0:
			st.r.addf(KindSampleBounds, s.Machine, s.Iter, "sample time %s before its iteration's grid start %s",
				fmtT(s.Time), fmtT(itStart))
		case off >= st.period:
			st.r.addf(KindSampleBounds, s.Machine, s.Iter, "sample time %s spills past its iteration's period window (start %s + %s)",
				fmtT(s.Time), fmtT(itStart), st.period)
		}
	}

	checkSession(s, &st.r)

	if prev, ok := st.last[s.Machine]; ok {
		if s.Time.Before(prev.Time) {
			st.r.addf(KindIterationOrder, s.Machine, s.Iter, "sample time %s before the machine's previous sample at %s",
				fmtT(s.Time), fmtT(prev.Time))
		}
		checkCounters(&prev, s, &st.r)
	}
	st.last[s.Machine] = *s

	if st.pending != nil {
		st.pending[s.Iter]++
	}
	return st.r.Total - before
}

// Iteration validates one finished iteration record (ordering,
// alignment, response accounting against the samples committed for it)
// and returns the number of new violations.
func (st *Stream) Iteration(it trace.Iteration) int {
	before := st.r.Total
	st.r.Iterations++

	var prev *trace.Iteration
	if st.haveIter {
		prev = &st.prevIter
	}
	checkIterRecord(&it, prev, st.start, st.period, st.opts, &st.r)
	st.prevIter, st.haveIter = it, true

	if st.pending != nil {
		got := st.pending[it.Iter] + it.ParseErrors
		if got != it.Responded {
			st.r.addf(KindResponseAccounting, "", it.Iter,
				"samples %d + parse errors %d != responded %d", st.pending[it.Iter], it.ParseErrors, it.Responded)
		}
		delete(st.pending, it.Iter)
	}
	return st.r.Total - before
}

// Report returns the accumulated report. The stream may keep being fed
// afterwards; the report is live.
func (st *Stream) Report() *Report {
	st.r.Machines = len(st.last)
	return &st.r
}
