package anomaly

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"
)

// Buffered returns the number of events currently held in the ring.
func (r *Ring) Buffered() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.filled {
		return len(r.ring)
	}
	return r.next
}

// goldenEvents exercises every encoder branch: omitempty fields present
// and absent, HTML-sensitive and control characters, invalid UTF-8, the
// U+2028/U+2029 line separators, sub-second timestamps, and float shapes
// across the decimal/exponent boundary.
var goldenEvents = []Event{
	{},
	{
		Time:      time.Date(2003, 10, 6, 8, 0, 0, 0, time.UTC),
		Kind:      KindAvailabilityCollapse,
		Severity:  SeverityCritical,
		Lab:       "L01",
		FirstIter: 12,
		LastIter:  14,
		Score:     0.8333333333333334,
		Detail:    "reachable 0.12 vs recent 0.72",
	},
	{
		Time:     time.Date(2003, 10, 6, 8, 0, 0, 123456789, time.UTC),
		Kind:     KindRebootStorm,
		Severity: SeverityWarning,
		Machine:  "L01-M07",
		Lab:      "L01",
		Score:    3,
	},
	{
		Kind:   KindSMARTAnomaly,
		Detail: "a<b>&\"c\"\\d\ne\tf\rg\x01h",
	},
	{
		Kind:   KindUsageDrift,
		Detail: "bad utf8 \xff\xfe and separators \u2028\u2029 and 日本語",
	},
	{Score: -0.000001},
	{Score: 0.0000001}, // < 1e-6: exponent form
	{Score: -2.5e-7},   // exponent with two-digit compaction
	{Score: 1e21},      // ≥ 1e21: exponent form
	{Score: -3.25e+22},
	{Score: 999999999999999999999}, // just under 1e21
	{Score: math.MaxFloat64},
	{Score: 5e-324}, // smallest denormal
	{Score: -1e12},
}

// TestAppendEventJSONMatchesEncodingJSON pins the hand-rolled event
// encoder byte-identical to encoding/json — same contract as the
// telemetry span encoder. If this fails after a Go release, the stdlib
// changed its JSON formatting and the encoder must follow.
func TestAppendEventJSONMatchesEncodingJSON(t *testing.T) {
	for i, e := range goldenEvents {
		want, err := json.Marshal(e)
		if err != nil {
			t.Fatalf("event %d: json.Marshal: %v", i, err)
		}
		got := appendEventJSON(nil, e)
		if !bytes.Equal(got, want) {
			t.Errorf("event %d encoding mismatch:\n got %s\nwant %s", i, got, want)
		}
	}
}

// TestAppendEventJSONNonFinite: encoding/json rejects NaN/Inf outright;
// the streaming encoder cannot error mid-line, so it degrades them to 0.
// Detectors clamp scores finite (clampScore), so this is a guard, not a
// supported value.
func TestAppendEventJSONNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		got := appendEventJSON(nil, Event{Score: f})
		want := appendEventJSON(nil, Event{Score: 0})
		if !bytes.Equal(got, want) {
			t.Errorf("score %v encoded as %s, want the zero encoding %s", f, got, want)
		}
	}
}

// TestRingAppendJSONMatchesEncodingJSON checks the /events array path
// against encoding/json across fill levels, wraparound, and the ?n=
// limit.
func TestRingAppendJSONMatchesEncodingJSON(t *testing.T) {
	r := NewRing(4)
	check := func(n int) {
		t.Helper()
		events := r.Snapshot()
		if n > 0 && n < len(events) {
			events = events[len(events)-n:]
		}
		want, err := json.Marshal(events)
		if err != nil {
			t.Fatal(err)
		}
		if len(events) == 0 {
			want = []byte("[]") // json.Marshal renders a nil slice as null
		}
		got := r.AppendJSON(nil, n)
		if !bytes.Equal(got, want) {
			t.Errorf("AppendJSON(n=%d) = %s, want %s", n, got, want)
		}
	}
	check(0)
	for i, e := range goldenEvents {
		r.Add(e)
		check(0)
		check(1)
		check(2)
		check(i + 40) // larger than buffered: full output
	}
	if r.Buffered() != 4 || r.Total() != uint64(len(goldenEvents)) {
		t.Errorf("ring buffered %d total %d, want 4 and %d", r.Buffered(), r.Total(), len(goldenEvents))
	}

	var nilRing *Ring
	if got := nilRing.AppendJSON(nil, 0); string(got) != "[]" {
		t.Errorf("nil ring AppendJSON = %s, want []", got)
	}
}

// TestRingJSONLStream checks the writer surface: every added event
// becomes exactly one JSONL line, byte-identical to encoding/json, and
// the line count matches Total even after ring eviction.
func TestRingJSONLStream(t *testing.T) {
	var buf bytes.Buffer
	r := NewRing(2) // smaller than the event count: eviction must not drop lines
	r.SetWriter(&buf)
	for _, e := range goldenEvents {
		r.Add(e)
	}
	lines := bytes.Split(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), []byte("\n"))
	if len(lines) != len(goldenEvents) {
		t.Fatalf("stream has %d lines, want %d", len(lines), len(goldenEvents))
	}
	for i, e := range goldenEvents {
		want, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(lines[i], want) {
			t.Errorf("line %d = %s, want %s", i, lines[i], want)
		}
	}
	if err := r.WriteErr(); err != nil {
		t.Errorf("WriteErr = %v", err)
	}
}
