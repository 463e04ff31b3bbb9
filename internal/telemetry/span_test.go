package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// SetCapacity resizes the ring, discarding buffered spans. Intended for
// setup time, before recording starts.
func (s *SpanRecorder) SetCapacity(n int) {
	if s == nil || n <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ring = make([]Span, n)
	s.next = 0
	s.filled = false
}

func TestSpanRingEviction(t *testing.T) {
	r := NewRegistry()
	sp := r.Spans()
	sp.SetCapacity(4)
	for i := 0; i < 10; i++ {
		sp.Record(Span{Machine: fmt.Sprintf("m%d", i), Iter: i, Outcome: OutcomeOK})
	}
	if got := sp.Total(); got != 10 {
		t.Fatalf("total = %d, want 10", got)
	}
	if got := sp.Buffered(); got != 4 {
		t.Fatalf("buffered = %d, want 4", got)
	}
	snap := sp.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot len = %d, want 4", len(snap))
	}
	// Oldest first: iterations 6,7,8,9 survive.
	for i, s := range snap {
		if want := 6 + i; s.Iter != want {
			t.Fatalf("snapshot[%d].Iter = %d, want %d", i, s.Iter, want)
		}
	}
}

func TestSpanPartialRingSnapshot(t *testing.T) {
	r := NewRegistry()
	sp := r.Spans()
	sp.SetCapacity(8)
	sp.Record(Span{Machine: "a", Outcome: OutcomeRetry})
	sp.Record(Span{Machine: "b", Outcome: OutcomeTimeout})
	snap := sp.Snapshot()
	if len(snap) != 2 || snap[0].Machine != "a" || snap[1].Machine != "b" {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap[0].Time.IsZero() {
		t.Fatal("Record should stamp a zero Time")
	}
}

func TestSpanJSONLStreaming(t *testing.T) {
	r := NewRegistry()
	sp := r.Spans()
	var buf bytes.Buffer
	sp.SetWriter(&buf)
	at := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	sp.Record(Span{Time: at, Machine: "m1", Iter: 3, Attempt: 2,
		Latency: 150 * time.Millisecond, Outcome: OutcomeRetry, Err: "boom"})
	sp.Record(Span{Time: at, Machine: "m2", Iter: 3, Attempt: 1, Outcome: OutcomeOK})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("JSONL lines = %d, want 2: %q", len(lines), buf.String())
	}
	var got Span
	if err := json.Unmarshal([]byte(lines[0]), &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got.Machine != "m1" || got.Iter != 3 || got.Attempt != 2 ||
		got.Latency != 150*time.Millisecond || got.Outcome != OutcomeRetry || got.Err != "boom" {
		t.Fatalf("round-trip mismatch: %+v", got)
	}
	// The ok span omits its empty err field entirely.
	if strings.Contains(lines[1], `"err"`) {
		t.Fatalf("empty err serialised: %s", lines[1])
	}
}

// TestAppendSpanJSONMatchesEncodingJSON pins the hand-rolled JSONL
// encoder to encoding/json byte-for-byte: field order, omitempty err,
// RFC3339Nano times, HTML-safe escaping, and invalid-UTF-8 replacement.
func TestAppendSpanJSONMatchesEncodingJSON(t *testing.T) {
	at := time.Date(2026, 8, 6, 12, 34, 56, 789012345, time.UTC)
	spans := []Span{
		{Time: at, Machine: "m1", Iter: 3, Attempt: 2,
			Latency: 150 * time.Millisecond, Outcome: OutcomeRetry, Err: "boom"},
		{Time: at, Machine: "m2", Iter: 0, Attempt: 1, Outcome: OutcomeOK}, // omitempty err
		{Time: at.In(time.FixedZone("X", 3600)), Machine: `quo"ted\back`, Outcome: OutcomeError,
			Err: "line\nbreak\ttab\rret"},
		{Time: at, Machine: "html<&>unsafe", Outcome: OutcomeTimeout, Err: "a<b && c>d"},
		{Time: at, Machine: "seps\u2028and\u2029", Outcome: OutcomeOK, Err: "ctl\x01\x1f"},
		{Time: at, Machine: "bad\xff\xfeutf8", Outcome: OutcomeParseError, Err: "trunc\xc3"},
		{Time: at, Machine: "real�rune", Outcome: OutcomeBreakerSkip, Err: "�"},
		{Time: at, Machine: "", Iter: -1, Attempt: 0, Latency: -time.Nanosecond, Outcome: ""},
	}
	for i, sp := range spans {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(sp); err != nil {
			t.Fatalf("span %d: encoding/json: %v", i, err)
		}
		got := appendSpanJSON(nil, sp)
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("span %d mismatch:\n got: %q\nwant: %q", i, got, want.Bytes())
		}
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.n++
	return 0, errors.New("disk full")
}

func TestSpanWriterErrorRetainedRingKeepsRecording(t *testing.T) {
	r := NewRegistry()
	sp := r.Spans()
	fw := &failWriter{}
	sp.SetWriter(fw)
	for i := 0; i < 5; i++ {
		sp.Record(Span{Machine: "m", Iter: i, Outcome: OutcomeOK})
	}
	if err := sp.WriteErr(); err == nil {
		t.Fatal("write error not retained")
	}
	if fw.n != 1 {
		t.Fatalf("writer called %d times after first failure, want 1", fw.n)
	}
	if got := sp.Buffered(); got != 5 {
		t.Fatalf("ring stopped recording after write error: buffered = %d", got)
	}
	// Re-arming with a healthy writer clears the error.
	var buf bytes.Buffer
	sp.SetWriter(&buf)
	sp.Record(Span{Machine: "m", Iter: 5, Outcome: OutcomeOK})
	if sp.WriteErr() != nil || buf.Len() == 0 {
		t.Fatal("SetWriter did not reset streaming")
	}
}
