// Package anomaly is the online detection layer over the live sample
// stream: a set of constant-memory streaming detectors fed from the
// DatasetSink commit path that turn the paper's post-hoc findings —
// availability collapses, reboot storms, SMART counter corruption, usage
// regime changes, machines that answer probes with frozen counters —
// into typed events the moment the collector books the evidence.
//
// PR 5's invariant checker validates that a trace is *well-formed*; this
// package detects that a well-formed trace describes a fleet that is
// *misbehaving*. The split matters: a lab whose machines all vanish at
// 10 am violates no invariant, but it is exactly the condition §4.1 of
// the paper tabulates after the fact and a live deployment must notice.
//
// Detections surface three ways, all fed from one emit path so their
// counts agree exactly:
//
//   - a bounded in-memory Ring served as JSON on the telemetry server's
//     /events endpoint (telemetry/httpx);
//   - an optional JSONL writer on the Ring (same hand-rolled encoder
//     contract as the telemetry span stream: byte-identical to
//     encoding/json, zero steady-state allocations);
//   - per-kind telemetry counters (anomaly_events_*_total) plus an
//     active-condition gauge, so a /metrics scrape shows detection rates
//     next to the collector health counters.
//
// Ground truth is free: the experiment driver can inject each anomaly
// class on a seeded schedule (experiment.InjectedAnomaly) and hand back
// the injection windows as Labels; TestDetectionQualityGate scores the
// detectors' events against them (per-detector precision/recall, run by
// `go test` and `make anomaly`).
package anomaly

import (
	"io"
	"sync"
	"time"
)

// Kind names one detector / anomaly class. The string values are stable:
// they appear in /events JSON, JSONL streams and telemetry metric names.
type Kind string

const (
	// KindAvailabilityCollapse: a lab's reachable fraction dropped far
	// below its seasonal baseline (the paper's §4.1 availability, watched
	// live).
	KindAvailabilityCollapse Kind = "availability-collapse"
	// KindRebootStorm: a machine or a lab is power-cycling at a rate no
	// classroom produces (§5.2 power-cycle analysis).
	KindRebootStorm Kind = "reboot-storm"
	// KindSMARTAnomaly: SMART attribute 12/9 (power cycles, power-on
	// hours) regressed or jumped implausibly between samples (§5.2.2).
	KindSMARTAnomaly Kind = "smart-anomaly"
	// KindUsageDrift: a machine's memory or disk usage left its own
	// running baseline (§4.2 resource-usage regimes).
	KindUsageDrift Kind = "usage-drift"
	// KindSensorStaleness: a machine keeps answering probes but its
	// monotone counters stopped moving — the report is stale even though
	// the transport is healthy.
	KindSensorStaleness Kind = "sensor-staleness"
)

// Kinds lists every detector kind in stable order (metric registration,
// report rendering).
func Kinds() []Kind {
	return []Kind{
		KindAvailabilityCollapse,
		KindRebootStorm,
		KindSMARTAnomaly,
		KindUsageDrift,
		KindSensorStaleness,
	}
}

// Severity grades an event.
type Severity string

const (
	SeverityWarning  Severity = "warning"
	SeverityCritical Severity = "critical"
)

// Event is one detection: which anomaly class, where (machine and/or
// lab), over which iteration span the evidence accumulated, and how far
// past the detector's threshold the signal was. Events are emitted once,
// when the detector's condition is confirmed; sustained conditions do
// not re-emit (the per-kind active gauge tracks ongoing ones).
type Event struct {
	Time      time.Time `json:"t"` // sample/iteration time of confirmation
	Kind      Kind      `json:"kind"`
	Severity  Severity  `json:"severity"`
	Machine   string    `json:"machine,omitempty"` // "" for lab-scoped events
	Lab       string    `json:"lab,omitempty"`
	FirstIter int       `json:"first_iter"` // iteration span of the evidence window
	LastIter  int       `json:"last_iter"`
	Score     float64   `json:"score"` // detector-specific magnitude (see each detector)
	Detail    string    `json:"detail,omitempty"`
}

// Label is one ground-truth anomaly: the injection schedule of a labeled
// scenario, expressed in the same coordinates as Event. Lab is always
// set (for machine-scoped injections it names the containing lab);
// Machines lists the targeted machines for machine-scoped injections and
// is empty for lab-wide ones.
type Label struct {
	Kind      Kind
	Lab       string
	Machines  []string
	FirstIter int
	LastIter  int
}

// DefaultRingCapacity bounds the in-memory event ring. Anomalies are
// rare by construction; 1024 holds days of noisy fleet history.
const DefaultRingCapacity = 1024

// Ring stores events in a bounded ring and optionally streams each one
// as a JSON line to a writer — the same shape as telemetry.SpanRecorder,
// so the JSONL and scrape surfaces stay in lockstep with the counters.
// All methods are safe on a nil receiver and for concurrent use.
type Ring struct {
	mu      sync.Mutex
	ring    []Event
	next    int
	filled  bool
	total   uint64
	w       io.Writer
	werr    error
	buf     []byte // reused JSONL encode buffer
	dropped uint64

	// taps observe every added event under the ring lock, in attachment
	// order — how the query layer's epoch-tagged event history rides the
	// same emit path as the ring, the JSONL stream and the counters.
	taps []*ringTap
}

// ringTap is one attached event observer.
type ringTap struct{ fn func(Event) }

// Tap registers an observer called for every subsequently added event,
// under the ring lock in attachment order — the same contract as the
// sink's commit-path taps: hand the event off quickly, do not block, and
// do not call back into the ring. The returned detach removes exactly
// this tap (idempotent). Safe on a nil ring (returns a no-op detach).
func (r *Ring) Tap(fn func(Event)) (detach func()) {
	if r == nil || fn == nil {
		return func() {}
	}
	t := &ringTap{fn: fn}
	r.mu.Lock()
	r.taps = append(r.taps, t)
	r.mu.Unlock()
	return func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		for i, tt := range r.taps {
			if tt == t {
				r.taps = append(r.taps[:i], r.taps[i+1:]...)
				return
			}
		}
	}
}

// NewRing creates a ring holding up to capacity events
// (DefaultRingCapacity when capacity ≤ 0).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultRingCapacity
	}
	return &Ring{ring: make([]Event, capacity)}
}

// SetWriter streams every subsequently added event to w as one JSON
// object per line (JSONL). A nil writer turns streaming off. The first
// write error stops streaming and is retained (WriteErr); events keep
// landing in the ring regardless.
func (r *Ring) SetWriter(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.w = w
	r.werr = nil
}

// Add stores one event and streams it to the JSONL writer if one is set.
func (r *Ring) Add(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	r.ring[r.next] = e
	r.next++
	if r.next == len(r.ring) {
		r.next = 0
		r.filled = true
	}
	for _, t := range r.taps {
		t.fn(e)
	}
	if r.w != nil {
		if r.werr != nil {
			r.dropped++
			return
		}
		r.buf = appendEventJSON(r.buf[:0], e)
		r.buf = append(r.buf, '\n')
		if _, err := r.w.Write(r.buf); err != nil {
			r.werr = err
			r.dropped++
		}
	}
}

// Snapshot returns the buffered events, oldest first.
func (r *Ring) Snapshot() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.filled {
		out := make([]Event, r.next)
		copy(out, r.ring[:r.next])
		return out
	}
	out := make([]Event, 0, len(r.ring))
	out = append(out, r.ring[r.next:]...)
	out = append(out, r.ring[:r.next]...)
	return out
}

// AppendJSON appends the buffered events as one JSON array, oldest
// first; when n > 0 only the most recent n events are rendered. It is
// the /events scrape path: one lock hold, no intermediate values. Safe
// on nil (appends "[]").
func (r *Ring) AppendJSON(dst []byte, n int) []byte {
	if r == nil {
		return append(dst, '[', ']')
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	count := r.next
	if r.filled {
		count = len(r.ring)
	}
	skip := 0
	if n > 0 && n < count {
		skip = count - n
	}
	dst = append(dst, '[')
	emitted := 0
	emit := func(e Event) {
		if skip > 0 {
			skip--
			return
		}
		if emitted > 0 {
			dst = append(dst, ',')
		}
		dst = appendEventJSON(dst, e)
		emitted++
	}
	if r.filled {
		for _, e := range r.ring[r.next:] {
			emit(e)
		}
	}
	for _, e := range r.ring[:r.next] {
		emit(e)
	}
	return append(dst, ']')
}

// Total returns how many events have been added since creation,
// including ones evicted from the ring.
func (r *Ring) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// WriteErr returns the first JSONL write error, if streaming failed.
func (r *Ring) WriteErr() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.werr
}
