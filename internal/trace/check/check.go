// Package check is the trace-validation layer: a streaming dataset
// invariant checker that verifies the semantic rules every winlab
// monitoring trace must satisfy, reporting typed, machine/iteration-
// addressed Violations instead of silently analysing corrupt data.
//
// Monitoring datasets are only as trustworthy as the invariants beneath
// them (the Grid'5000 "year in the life" report makes the same point
// about availability statistics): after three performance-oriented
// rewrites of the collection pipeline — the frozen index, the deferred
// executor, the zero-allocation codec — the cheapest way to keep the
// 583k-sample traces honest is to make validation a first-class
// subsystem. The invariants encode the paper's probe semantics (§2/§3):
//
//   - per-boot counters are monotone: uptime, cumulative CPU idle and
//     the NIC byte counters never decrease between two samples of the
//     same boot (KindCounterRegression);
//   - SMART attributes survive reboots: the power-cycle count (attr 12)
//     and power-on hours (attr 9) never decrease across a machine's
//     whole timeline, cycles are constant within a boot and strictly
//     increase across one (KindSMARTRegression);
//   - iteration records are strictly increasing in number and start
//     time, and starts are aligned to the sampling period
//     (KindIterationOrder, KindIterationAlignment);
//   - a machine contributes at most one sample per iteration
//     (KindDuplicateSample);
//   - session fields are consistent with login state: no session start
//     without a user, no user without a session start, no session that
//     begins after the sample observing it (KindSessionState);
//   - samples fall inside the [Start, End] window of the iteration that
//     collected them, and inside the experiment bounds
//     (KindSampleBounds);
//   - every sampled machine is catalogued (KindUnknownMachine);
//   - a machine with a declared partial lifetime (scenario fleet churn)
//     only contributes samples inside its [JoinIter, LeaveIter) window
//     (KindLifetimeViolation);
//   - per-iteration accounting closes: committed samples plus booked
//     parse errors equal the responded count (KindResponseAccounting);
//   - the frozen trace.Index agrees with the dataset it claims to
//     describe: fingerprint valid, spans cover every sample exactly
//     once, machine-major time-sorted order, cached Attempts/Days match
//     a recount (KindIndexMismatch).
//
// Check validates a complete in-memory dataset (the tracedoctor CLI and
// `make doctor` path); Stream validates samples one at a time as a
// collector commits them (a ddc.DatasetSink tap) or as a cursor reads
// them back.
package check

import (
	"fmt"
	"time"

	"winlab/internal/trace"
)

// Kind names one invariant class. The string values are stable: they
// appear in tracedoctor output and in telemetry.
type Kind string

const (
	KindCounterRegression  Kind = "counter-regression"
	KindSMARTRegression    Kind = "smart-regression"
	KindIterationOrder     Kind = "iteration-order"
	KindIterationAlignment Kind = "iteration-alignment"
	KindDuplicateSample    Kind = "duplicate-sample"
	KindSessionState       Kind = "session-state"
	KindSampleBounds       Kind = "sample-bounds"
	KindUnknownMachine     Kind = "unknown-machine"
	KindLifetimeViolation  Kind = "lifetime-violation"
	KindResponseAccounting Kind = "response-accounting"
	KindIndexMismatch      Kind = "index-mismatch"
)

// Violation is one invariant breach, addressed to the machine and
// iteration it was observed at (empty machine / negative iteration mean
// "dataset-level").
type Violation struct {
	Kind    Kind
	Machine string // "" when not machine-scoped
	Iter    int    // -1 when not iteration-scoped
	Msg     string
}

// String renders the violation with its coordinates, e.g.
//
//	counter-regression machine=lab1-m03 iter=55: uptime 5h12m0s -> 4h57m0s within one boot
func (v Violation) String() string {
	s := string(v.Kind)
	if v.Machine != "" {
		s += " machine=" + v.Machine
	}
	if v.Iter >= 0 {
		s += fmt.Sprintf(" iter=%d", v.Iter)
	}
	return s + ": " + v.Msg
}

// DefaultLimit bounds how many violations a Report retains; a corrupted
// 580k-sample trace would otherwise buffer hundreds of thousands of
// near-identical entries.
const DefaultLimit = 100

// Options configures a check run.
type Options struct {
	// Limit caps the violations retained in the report (counting
	// continues past it). Zero means DefaultLimit; negative means
	// unlimited.
	Limit int

	// NoAlignment skips the period-alignment invariant. Simulated traces
	// start iterations exactly on the period grid; wall-clock traces
	// (WallCollector) drift and should set this.
	NoAlignment bool

	// NoAccounting skips the responded-count reconciliation, for traces
	// assembled by tools (Merge, TimeSlice) that keep iteration records
	// but re-partition samples.
	NoAccounting bool
}

func (o Options) limit() int {
	switch {
	case o.Limit == 0:
		return DefaultLimit
	case o.Limit < 0:
		return int(^uint(0) >> 1)
	}
	return o.Limit
}

// Report is the outcome of a check: the retained violations, the total
// number found (retained or not), and how much was looked at.
type Report struct {
	Violations []Violation
	Total      int // violations found, including ones past the limit
	Samples    int // samples checked
	Iterations int // iteration records checked
	Machines   int // machines with at least one sample

	limit int
}

// OK reports whether no invariant was violated.
func (r *Report) OK() bool { return r.Total == 0 }

// Truncated reports whether violations were found beyond the retained
// limit.
func (r *Report) Truncated() bool { return r.Total > len(r.Violations) }

// Err returns nil when the report is clean, otherwise an error naming
// the first violation and the total count.
func (r *Report) Err() error {
	if r.OK() {
		return nil
	}
	if r.Total == 1 {
		return fmt.Errorf("trace check: %s", r.Violations[0])
	}
	return fmt.Errorf("trace check: %d violations, first: %s", r.Total, r.Violations[0])
}

// add books one violation, retaining it while under the limit.
func (r *Report) add(v Violation) {
	r.Total++
	if len(r.Violations) < r.limit {
		r.Violations = append(r.Violations, v)
	}
}

func (r *Report) addf(kind Kind, machine string, iter int, format string, args ...any) {
	r.add(Violation{Kind: kind, Machine: machine, Iter: iter, Msg: fmt.Sprintf(format, args...)})
}

// Check validates every invariant over a complete dataset. It freezes
// the dataset (building the trace.Index if needed) and streams over the
// per-machine spans — one pass over the samples, one over the
// iterations, no per-sample allocation.
func Check(d *trace.Dataset, opts Options) *Report {
	r := &Report{limit: opts.limit()}
	iters := checkIterations(d, opts, r)

	idx := d.Index()
	var perIter map[int]int
	if !opts.NoAccounting {
		perIter = make(map[int]int, len(d.Iterations))
	}
	prevID := ""
	idx.EachMachine(func(id string, ss []trace.Sample) {
		r.Machines++
		if prevID != "" && id <= prevID {
			r.addf(KindIndexMismatch, id, -1, "index machine order not strictly sorted (%q after %q)", id, prevID)
		}
		prevID = id
		info := idx.Machine(id)
		if info == nil {
			r.addf(KindUnknownMachine, id, -1, "machine has %d samples but no catalogue entry", len(ss))
		}
		for i := range ss {
			s := &ss[i]
			r.Samples++
			if s.Machine != id {
				r.addf(KindIndexMismatch, id, s.Iter, "index span for %q contains sample of machine %q", id, s.Machine)
			}
			if perIter != nil {
				perIter[s.Iter]++
			}
			checkLifetime(info, s, r)
			checkSampleBounds(d, iters, s, r)
			checkSession(s, r)
			if i > 0 {
				checkPair(&ss[i-1], s, r)
			}
		}
	})

	checkIndexAgreement(d, idx, r)
	if perIter != nil {
		reconcileResponses(d, perIter, r)
	}
	return r
}

// checkIterations validates the iteration records and returns the
// iteration-number → index lookup the sample pass uses.
func checkIterations(d *trace.Dataset, opts Options, r *Report) map[int]int {
	iters := make(map[int]int, len(d.Iterations))
	for i := range d.Iterations {
		it := &d.Iterations[i]
		r.Iterations++
		if prev, dup := iters[it.Iter]; dup {
			r.addf(KindIterationOrder, "", it.Iter, "duplicate iteration record (records %d and %d)", prev, i)
		} else {
			iters[it.Iter] = i
		}
		var prev *trace.Iteration
		if i > 0 {
			prev = &d.Iterations[i-1]
		}
		checkIterRecord(it, prev, d.Start, d.Period, opts, r)
	}
	return iters
}

// checkIterRecord validates one iteration record against its predecessor
// (nil for the first) and the experiment grid. Shared by the batch
// checker and the Stream.
func checkIterRecord(it, prev *trace.Iteration, start time.Time, period time.Duration, opts Options, r *Report) {
	if prev != nil {
		if it.Iter <= prev.Iter {
			r.addf(KindIterationOrder, "", it.Iter, "iteration number not strictly increasing (%d after %d)", it.Iter, prev.Iter)
		}
		if !it.Start.After(prev.Start) {
			r.addf(KindIterationOrder, "", it.Iter, "iteration start %s not after previous start %s",
				fmtT(it.Start), fmtT(prev.Start))
		}
	}
	if !it.End.IsZero() && it.End.Before(it.Start) {
		r.addf(KindIterationOrder, "", it.Iter, "iteration end %s before start %s", fmtT(it.End), fmtT(it.Start))
	}
	if it.Responded > it.Attempted {
		r.addf(KindResponseAccounting, "", it.Iter, "responded %d exceeds attempted %d", it.Responded, it.Attempted)
	}
	if it.ParseErrors < 0 || it.Attempted < 0 || it.Responded < 0 {
		r.addf(KindResponseAccounting, "", it.Iter, "negative iteration counter (attempted=%d responded=%d parse-errors=%d)",
			it.Attempted, it.Responded, it.ParseErrors)
	}
	if !opts.NoAlignment && period > 0 {
		off := it.Start.Sub(start)
		if off < 0 || off%period != 0 {
			r.addf(KindIterationAlignment, "", it.Iter, "iteration start %s not aligned to the %s grid from %s",
				fmtT(it.Start), period, fmtT(start))
		}
	}
}

// checkSampleBounds validates one sample's position against the
// experiment bounds and its iteration's collection window.
func checkSampleBounds(d *trace.Dataset, iters map[int]int, s *trace.Sample, r *Report) {
	if !d.Start.IsZero() && s.Time.Before(d.Start) || !d.End.IsZero() && s.Time.After(d.End) {
		r.addf(KindSampleBounds, s.Machine, s.Iter, "sample time %s outside experiment [%s, %s]",
			fmtT(s.Time), fmtT(d.Start), fmtT(d.End))
		return
	}
	i, ok := iters[s.Iter]
	if !ok {
		r.addf(KindSampleBounds, s.Machine, s.Iter, "sample references iteration %d with no iteration record", s.Iter)
		return
	}
	it := &d.Iterations[i]
	if s.Time.Before(it.Start) {
		r.addf(KindSampleBounds, s.Machine, s.Iter, "sample time %s before its iteration start %s",
			fmtT(s.Time), fmtT(it.Start))
		return
	}
	switch {
	case !it.End.IsZero():
		if s.Time.After(it.End) {
			r.addf(KindSampleBounds, s.Machine, s.Iter, "sample time %s after its iteration end %s",
				fmtT(s.Time), fmtT(it.End))
		}
	case d.Period > 0:
		// Legacy traces carry no sweep end; the sweep must at least stay
		// inside its own period or iterations would overlap.
		if s.Time.Sub(it.Start) >= d.Period {
			r.addf(KindSampleBounds, s.Machine, s.Iter, "sample time %s spills past its iteration's period window (start %s + %s)",
				fmtT(s.Time), fmtT(it.Start), d.Period)
		}
	}
}

// checkLifetime validates that a sample of a partial-lifetime machine
// falls inside its declared [JoinIter, LeaveIter) membership window — a
// probe report from before the machine joined the fleet or after it was
// retired means the catalogue's lifecycle metadata and the samples
// disagree.
func checkLifetime(info *trace.MachineInfo, s *trace.Sample, r *Report) {
	if info == nil || !info.PartialLifetime() || info.ActiveAt(s.Iter) {
		return
	}
	r.addf(KindLifetimeViolation, s.Machine, s.Iter,
		"sample at iteration %d outside declared lifetime [%d, %s)",
		s.Iter, info.JoinIter, fmtLeave(info.LeaveIter))
}

func fmtLeave(leave int) string {
	if leave == 0 {
		return "end"
	}
	return fmt.Sprintf("%d", leave)
}

// checkSession validates the login-state consistency of one sample.
func checkSession(s *trace.Sample, r *Report) {
	switch {
	case s.SessionUser == "" && !s.SessionStart.IsZero():
		r.addf(KindSessionState, s.Machine, s.Iter, "session start %s recorded without a logged-in user", fmtT(s.SessionStart))
	case s.SessionUser != "" && s.SessionStart.IsZero():
		r.addf(KindSessionState, s.Machine, s.Iter, "user %q logged in but session start unset", s.SessionUser)
	case s.SessionUser != "" && s.SessionStart.After(s.Time):
		r.addf(KindSessionState, s.Machine, s.Iter, "session of %q starts %s, after the sample observing it (%s)",
			s.SessionUser, fmtT(s.SessionStart), fmtT(s.Time))
	}
}

// checkPair validates the invariants between two consecutive samples of
// one machine (prev before cur in time order): time/iteration ordering,
// at most one sample per iteration, per-boot counter monotonicity and
// SMART behaviour across boots.
func checkPair(prev, cur *trace.Sample, r *Report) {
	if cur.Time.Before(prev.Time) {
		r.addf(KindIndexMismatch, cur.Machine, cur.Iter, "samples not time-sorted (%s after %s) — index stale after in-place edits?",
			fmtT(cur.Time), fmtT(prev.Time))
	}
	checkCounters(prev, cur, r)
}

// checkCounters validates the per-pair counter invariants (duplicate
// iteration, iteration regression, SMART monotonicity, per-boot counter
// monotonicity) between two consecutive samples of one machine. Shared
// by the batch checker and the Stream.
func checkCounters(prev, cur *trace.Sample, r *Report) {
	switch {
	case cur.Iter == prev.Iter:
		r.addf(KindDuplicateSample, cur.Machine, cur.Iter, "two samples in one iteration (at %s and %s)",
			fmtT(prev.Time), fmtT(cur.Time))
	case cur.Iter < prev.Iter:
		r.addf(KindIterationOrder, cur.Machine, cur.Iter, "sample iteration goes backwards (%d after %d)", cur.Iter, prev.Iter)
	}

	// SMART attributes cover the disk's whole life: never decreasing,
	// regardless of reboots.
	if cur.PowerCycles < prev.PowerCycles {
		r.addf(KindSMARTRegression, cur.Machine, cur.Iter, "power cycles decreased %d -> %d", prev.PowerCycles, cur.PowerCycles)
	}
	if cur.PowerOnHours < prev.PowerOnHours {
		r.addf(KindSMARTRegression, cur.Machine, cur.Iter, "power-on hours decreased %d -> %d", prev.PowerOnHours, cur.PowerOnHours)
	}

	if trace.SameBoot(prev, cur) {
		// One boot: the probe's cumulative counters are monotone.
		if cur.Uptime < prev.Uptime {
			r.addf(KindCounterRegression, cur.Machine, cur.Iter, "uptime %s -> %s within one boot", prev.Uptime, cur.Uptime)
		}
		if cur.CPUIdle < prev.CPUIdle {
			r.addf(KindCounterRegression, cur.Machine, cur.Iter, "cumulative CPU idle %s -> %s within one boot", prev.CPUIdle, cur.CPUIdle)
		}
		if cur.SentBytes < prev.SentBytes {
			r.addf(KindCounterRegression, cur.Machine, cur.Iter, "sent-bytes counter %d -> %d within one boot", prev.SentBytes, cur.SentBytes)
		}
		if cur.RecvBytes < prev.RecvBytes {
			r.addf(KindCounterRegression, cur.Machine, cur.Iter, "recv-bytes counter %d -> %d within one boot", prev.RecvBytes, cur.RecvBytes)
		}
		if cur.PowerCycles != prev.PowerCycles {
			r.addf(KindSMARTRegression, cur.Machine, cur.Iter, "power cycles changed %d -> %d within one boot", prev.PowerCycles, cur.PowerCycles)
		}
		return
	}
	// A reboot: the boot clock moves forward and SMART attribute 12
	// counts at least the power-on that started the new boot.
	if cur.BootTime.Before(prev.BootTime) {
		r.addf(KindCounterRegression, cur.Machine, cur.Iter, "boot time went backwards (%s after %s)",
			fmtT(cur.BootTime), fmtT(prev.BootTime))
	}
	if cur.PowerCycles <= prev.PowerCycles {
		r.addf(KindSMARTRegression, cur.Machine, cur.Iter, "power cycles did not increase across a reboot (%d -> %d)",
			prev.PowerCycles, cur.PowerCycles)
	}
}

// checkIndexAgreement verifies the frozen index still describes the
// dataset: fingerprint validity and the cached aggregates against a
// recount.
func checkIndexAgreement(d *trace.Dataset, idx *trace.Index, r *Report) {
	if !idx.Valid() {
		r.addf(KindIndexMismatch, "", -1, "index fingerprint stale: dataset structurally mutated after freeze")
	}
	if got, want := idx.Attempts(), d.Attempts(); got != want {
		r.addf(KindIndexMismatch, "", -1, "index cached attempts %d != dataset recount %d", got, want)
	}
	if got, want := idx.Days(), d.Days(); got != want {
		r.addf(KindIndexMismatch, "", -1, "index cached days %g != dataset recount %g", got, want)
	}
	covered := 0
	for _, id := range idx.Machines() {
		covered += len(idx.Samples(id))
	}
	if covered != len(d.Samples) {
		r.addf(KindIndexMismatch, "", -1, "index spans cover %d samples, dataset has %d", covered, len(d.Samples))
	}
}

// reconcileResponses closes the per-iteration accounting loop: the
// samples committed for an iteration plus its booked parse errors must
// equal the responses the collector recorded.
func reconcileResponses(d *trace.Dataset, perIter map[int]int, r *Report) {
	for i := range d.Iterations {
		it := &d.Iterations[i]
		if got, want := perIter[it.Iter]+it.ParseErrors, it.Responded; got != want {
			r.addf(KindResponseAccounting, "", it.Iter,
				"samples %d + parse errors %d != responded %d", perIter[it.Iter], it.ParseErrors, it.Responded)
		}
	}
}

func fmtT(t time.Time) string {
	if t.IsZero() {
		return "<unset>"
	}
	return t.UTC().Format(time.RFC3339)
}
