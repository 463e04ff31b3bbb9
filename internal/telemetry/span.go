package telemetry

import (
	"io"
	"strconv"
	"sync"
	"time"

	"winlab/internal/jsonx"
)

// DefaultSpanCapacity is the size of the in-memory span ring: large
// enough to hold several iterations of a mid-size fleet, small enough
// that a long-running coordinator's memory stays bounded.
const DefaultSpanCapacity = 4096

// Outcome classifies one probe span.
type Outcome string

const (
	// OutcomeOK: the probe returned a report.
	OutcomeOK Outcome = "ok"
	// OutcomeRetry: the attempt failed and the collector will retry it
	// within the same iteration.
	OutcomeRetry Outcome = "retry"
	// OutcomeTimeout: the final attempt exceeded the per-probe deadline.
	OutcomeTimeout Outcome = "timeout"
	// OutcomeError: the final attempt failed for a non-deadline reason
	// (unreachable host, transport error).
	OutcomeError Outcome = "error"
	// OutcomeBreakerSkip: the machine was not probed because its circuit
	// breaker is open.
	OutcomeBreakerSkip Outcome = "breaker_skip"
	// OutcomeParseError: the probe responded but its report did not parse.
	OutcomeParseError Outcome = "parse_error"
)

// Span records one probe-level event: which machine, which iteration,
// which attempt, how long it took, and how it ended. Latency marshals as
// nanoseconds (Go's native Duration encoding).
type Span struct {
	Time    time.Time     `json:"t"`
	Machine string        `json:"machine"`
	Iter    int           `json:"iter"`
	Attempt int           `json:"attempt"` // 1-based; 0 for breaker skips
	Latency time.Duration `json:"latency_ns"`
	Outcome Outcome       `json:"outcome"`
	Err     string        `json:"err,omitempty"`
}

// SpanRecorder stores spans in a bounded ring and optionally streams
// each one as a JSON line to a writer. All methods are safe on a nil
// receiver (no-ops / zero values) and safe for concurrent use.
type SpanRecorder struct {
	mu      sync.Mutex
	ring    []Span
	next    int
	filled  bool
	total   uint64
	w       io.Writer
	werr    error
	buf     []byte // reused JSONL encode buffer (one span line at a time)
	dropped uint64 // spans not written to w because of a write error
}

func newSpanRecorder(capacity int) *SpanRecorder {
	if capacity <= 0 {
		capacity = DefaultSpanCapacity
	}
	return &SpanRecorder{ring: make([]Span, capacity)}
}

// SetWriter streams every subsequently recorded span to w as one JSON
// object per line (JSONL). A nil writer turns streaming off. The first
// write error stops streaming and is retained (see WriteErr); spans keep
// landing in the ring regardless.
func (s *SpanRecorder) SetWriter(w io.Writer) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.w = w
	s.werr = nil
}

// Record stores one span.
func (s *SpanRecorder) Record(sp Span) {
	if s == nil {
		return
	}
	if sp.Time.IsZero() {
		sp.Time = time.Now()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.total++
	s.ring[s.next] = sp
	s.next++
	if s.next == len(s.ring) {
		s.next = 0
		s.filled = true
	}
	if s.w != nil {
		if s.werr != nil {
			s.dropped++
			return
		}
		// Encode into the recorder's reused buffer — json.Encoder
		// allocated a fresh intermediate per span; appendSpanJSON emits
		// byte-identical JSONL into scratch that amortises to zero.
		s.buf = appendSpanJSON(s.buf[:0], sp)
		if _, err := s.w.Write(s.buf); err != nil {
			s.werr = err
			s.dropped++
		}
	}
}

// appendSpanJSON appends one span encoded exactly as encoding/json would
// (field order, omitempty err, HTML-safe escaping, RFC3339Nano time),
// terminated by a newline — the JSONL line json.Encoder used to produce,
// minus its per-call buffer.
func appendSpanJSON(dst []byte, sp Span) []byte {
	dst = append(dst, `{"t":`...)
	dst = jsonx.AppendTime(dst, sp.Time)
	dst = append(dst, `,"machine":`...)
	dst = jsonx.AppendString(dst, sp.Machine)
	dst = append(dst, `,"iter":`...)
	dst = strconv.AppendInt(dst, int64(sp.Iter), 10)
	dst = append(dst, `,"attempt":`...)
	dst = strconv.AppendInt(dst, int64(sp.Attempt), 10)
	dst = append(dst, `,"latency_ns":`...)
	dst = strconv.AppendInt(dst, int64(sp.Latency), 10)
	dst = append(dst, `,"outcome":`...)
	dst = jsonx.AppendString(dst, string(sp.Outcome))
	if sp.Err != "" {
		dst = append(dst, `,"err":`...)
		dst = jsonx.AppendString(dst, sp.Err)
	}
	return append(dst, '}', '\n')
}

// Snapshot returns the buffered spans, oldest first.
func (s *SpanRecorder) Snapshot() []Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.filled {
		out := make([]Span, s.next)
		copy(out, s.ring[:s.next])
		return out
	}
	out := make([]Span, 0, len(s.ring))
	out = append(out, s.ring[s.next:]...)
	out = append(out, s.ring[:s.next]...)
	return out
}

// Total returns how many spans have been recorded since creation
// (including ones evicted from the ring).
func (s *SpanRecorder) Total() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Buffered returns the number of spans currently held in the ring.
func (s *SpanRecorder) Buffered() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.filled {
		return len(s.ring)
	}
	return s.next
}

// WriteErr returns the first JSONL write error, if streaming failed.
func (s *SpanRecorder) WriteErr() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.werr
}
