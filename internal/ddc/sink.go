package ddc

import (
	"fmt"
	"sync"
	"time"

	"winlab/internal/machine"
	"winlab/internal/probe"
	"winlab/internal/telemetry"
	"winlab/internal/trace"
)

// DatasetSink is the standard post-collecting code: it parses every probe
// report and accumulates a trace.Dataset, exactly like the paper's Python
// post-collect extracted and stored the relevant metrics at the
// coordinator. It is safe for concurrent use: one lock serialises every
// parse and commit (DESIGN.md §8.5).
//
// The sink owns one probe.Parser and parses every report with the
// collector's target (probe.Parser.ParseTarget), so the parser's static-
// block memo holds one entry per machine the sink collects — the sink's
// share of the fleet, in fleet order — and lives as long as the sink.
type DatasetSink struct {
	mu     sync.Mutex
	d      *trace.Dataset
	parser *probe.Parser

	// ParseErrors counts malformed reports (should stay zero; a non-zero
	// value indicates a probe/transport bug).
	ParseErrors int
	lastErr     error

	// bookedParseErrs is how many parse errors had already been attributed
	// to finished iterations; the difference to ParseErrors is what the
	// next OnIteration books.
	bookedParseErrs int

	// bookedSamples is len(d.Samples) at the last booked iteration and
	// largestIter the most samples any one iteration committed — what
	// reserveLocked sizes the slice by.
	bookedSamples, largestIter int

	tel sinkTelemetry

	// taps observe every committed sample and iteration record under the
	// sink lock, in attachment order — the multiplexing point for live
	// validation (a check.Stream) and the anomaly detectors
	// (anomaly.Detectors via Tap). Empty (the default) keeps the commit
	// path branch-cheap and allocation-free: ranging an empty slice costs
	// nothing and commits never allocate on behalf of taps.
	taps []*sinkTap
}

// sinkTap is one attached observer pair. Either func may be nil.
type sinkTap struct {
	sample func(*trace.Sample)
	iter   func(trace.Iteration)
}

// Tap attaches an observer to the sink's commit path: onSample sees
// every committed sample (pointer valid only during the call) and onIter
// every booked iteration record, both invoked under the sink lock in
// attachment order. Either func may be nil. The returned detach func
// removes exactly this tap (idempotent); remaining taps keep their
// relative order. Attach before collection starts — taps want to see
// every commit from the first iteration on. Safe on a nil sink (returns
// a no-op detach).
//
// Live validation is one Tap that forwards to a check.Stream built with
// the sink's bounds: invariant violations surface the moment the
// collector books the bad data, and the stream's Report is read once
// collection is done.
func (s *DatasetSink) Tap(onSample func(*trace.Sample), onIter func(trace.Iteration)) (detach func()) {
	if s == nil {
		return func() {}
	}
	t := &sinkTap{sample: onSample, iter: onIter}
	s.mu.Lock()
	s.taps = append(s.taps, t)
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		for i, tt := range s.taps {
			if tt == t {
				s.taps = append(s.taps[:i], s.taps[i+1:]...)
				return
			}
		}
	}
}

// NewDatasetSink creates a sink collecting into a dataset with the given
// experiment bounds and sampling period.
func NewDatasetSink(start, end time.Time, period time.Duration, machines []trace.MachineInfo) *DatasetSink {
	return &DatasetSink{d: &trace.Dataset{
		Start:    start,
		End:      end,
		Period:   period,
		Machines: machines,
	}, parser: probe.NewParser()}
}

// WithTelemetry wires the sink to a metrics registry (sink_* counters;
// parse errors additionally record a parse_error span) and returns the
// sink for chaining. A nil registry keeps the sink uninstrumented.
func (s *DatasetSink) WithTelemetry(reg *telemetry.Registry) *DatasetSink {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tel = newSinkTelemetry(reg)
	return s
}

// Post is the PostCollect hook: parse and commit under the sink lock.
// It stays closure-free — the collector calls it once per probe on the
// hot path — and honours the PostCollect lifetime contract: the parser
// interns or memoises what it keeps, so nothing retains stdout after the
// call (the collector may reuse the underlying buffer immediately).
func (s *DatasetSink) Post(iter int, machineID string, stdout []byte, err error) {
	if err != nil {
		return // unreachable machine: no sample
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sn, perr := s.parse(machineID, stdout)
	if perr != nil {
		s.ParseErrors++
		s.lastErr = fmt.Errorf("machine %s: %w", machineID, perr)
		s.tel.parseErrors.Inc()
		if s.tel.spans != nil {
			s.tel.spans.Record(telemetry.Span{
				Machine: machineID,
				Iter:    iter,
				Outcome: telemetry.OutcomeParseError,
				Err:     perr.Error(),
			})
		}
		return
	}
	s.d.Samples = append(s.d.Samples, trace.FromSnapshot(iter, sn))
	s.tel.samples.Inc()
	for _, t := range s.taps {
		if t.sample != nil {
			t.sample(&s.d.Samples[len(s.d.Samples)-1])
		}
	}
}

// parse decodes one report from machineID with the sink's parser; the
// caller holds s.mu.
func (s *DatasetSink) parse(machineID string, stdout []byte) (machine.Snapshot, error) {
	return s.parser.ParseTarget(machineID, stdout)
}

// OnIteration records per-iteration bookkeeping; wire it to the
// collector's OnIteration hook. Parse errors that surfaced since the
// previous iteration are attributed to this one (the collectors run the
// post-collect hooks for an iteration before its OnIteration fires).
func (s *DatasetSink) OnIteration(info IterationInfo) {
	s.mu.Lock()
	defer s.mu.Unlock()
	perrs := s.ParseErrors - s.bookedParseErrs
	s.bookedParseErrs = s.ParseErrors
	it := trace.Iteration{
		Iter: info.Iter, Start: info.Start, End: info.End,
		Attempted: info.Attempted, Responded: info.Responded,
		ParseErrors: perrs,
	}
	s.d.Iterations = append(s.d.Iterations, it)
	s.tel.iterations.Inc()
	for _, t := range s.taps {
		if t.iter != nil {
			t.iter(it)
		}
	}
	s.largestIter = max(s.largestIter, len(s.d.Samples)-s.bookedSamples)
	s.bookedSamples = len(s.d.Samples)
	s.reserveLocked(info.Start)
}

// reserveLocked sizes the sample slice for the rest of the run at an
// iteration boundary, so that commit's append does not regrow it — a
// copy of everything collected so far, in 1.25× steps — in the middle of
// sweep after sweep. It acts only when the free capacity would not hold
// another iteration as large as the largest so far, and then grows once,
// by the samples the remaining iterations (those starting after last,
// before the dataset's End) will bring at the rate seen so far plus 5 %.
// That estimate is held between bounds: at least append's own quarter of
// the length, so a rate that outruns it never copies more than append
// would have; at most the largest iteration every remaining time; and
// always room for one such iteration. A wrong early guess costs a copy of
// a still-small slice. With no iterations left to come, or bounds that do
// not say, append's growth stands.
func (s *DatasetSink) reserveLocked(last time.Time) {
	d := s.d
	n := len(d.Samples)
	left := d.End.Sub(last)
	if cap(d.Samples)-n >= s.largestIter || d.Period <= 0 || left <= d.Period {
		return
	}
	remaining := int((left - 1) / d.Period) // iterations starting in (last, End)
	want := int(1.05 * float64(n) / float64(len(d.Iterations)) * float64(remaining))
	want = max(min(max(want, n/4), remaining*s.largestIter), s.largestIter)
	grown := make([]trace.Sample, n, n+want)
	copy(grown, d.Samples)
	d.Samples = grown
}

// CloneDataset returns a view of the accumulated dataset, cut under the
// sink lock (trace.Dataset.ClonePrefix): it copies no sample, and it
// stays the prefix it was cut from while the collector keeps committing,
// so the caller can freeze, analyse and serve it — read-only; freezing a
// view sorts a copy, not the sink's storage. The view's samples are in
// commit order, not machine-sorted, and it carries the lineage stamp that
// lets a consumer take only what a later view adds (trace.Dataset.Since).
func (s *DatasetSink) CloneDataset() *trace.Dataset {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.d.ClonePrefix()
}

// SnapshotEvery registers a commit-path tap that hands fn a view of the
// accumulated dataset (CloneDataset's) after every k-th booked iteration
// (every ≤ 1 means every iteration). The view is cut under the sink lock
// at an iteration boundary — all of that iteration's samples are
// committed, none of the next iteration's are — so each published
// dataset is exactly the committed prefix through its last iteration
// record, and stays so: the publish half of the query layer's snapshot
// isolation, at a cost that does not grow with the prefix.
//
// fn runs on the collector's iteration goroutine while the sink lock is
// held, so it must stay O(what the epoch added): query.Store.Publish
// qualifies — it folds only the view's tail since the previous view
// (trace.Dataset.Since) into its resident analysis engine — but a full
// analysis of the view does not; hand that off instead. The returned
// detach removes the tap.
func (s *DatasetSink) SnapshotEvery(every int, fn func(*trace.Dataset)) (detach func()) {
	if s == nil || fn == nil {
		return func() {}
	}
	if every < 1 {
		every = 1
	}
	n := 0
	return s.Tap(nil, func(trace.Iteration) {
		n++
		if n%every != 0 {
			return
		}
		fn(s.d.ClonePrefix())
	})
}

// Dataset returns the collected dataset, which the caller then owns and
// may sort or edit. If the sink ever cut a view (CloneDataset,
// SnapshotEvery), the dataset's storage first moves to arrays of its own
// (trace.Dataset.Unshare), so nothing the caller does reaches a view
// already handed out; a run that cut none pays nothing. The last parse
// error, if any, is returned so callers cannot silently analyse a
// corrupted trace.
func (s *DatasetSink) Dataset() (*trace.Dataset, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.d.Unshare()
	return s.d, s.lastErr
}
