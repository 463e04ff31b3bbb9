package stats

import (
	"math"
	"testing"
	"time"
	_ "time/tzdata" // the DST zones below, whatever the host has installed
)

// weekSlotCalendar is WeekSlot as it was before the integer path: the
// calendar fields of t in its own location. It stays as the oracle for
// every instant.
func weekSlotCalendar(t time.Time) int {
	wd := int(t.Weekday()) // Sunday = 0
	day := (wd + 6) % 7    // Monday = 0
	return day*24*4 + t.Hour()*4 + t.Minute()/15
}

// weekSlotLocation picks an instant's location from a fuzzed selector:
// UTC (the integer path), the host-independent zones with daylight
// saving, Local, or a fixed offset.
func weekSlotLocation(t *testing.T, sel int16) *time.Location {
	switch sel % 5 {
	case 0:
		return time.UTC
	case 1, -1:
		loc, err := time.LoadLocation("Europe/Lisbon")
		if err != nil {
			t.Fatal(err)
		}
		return loc
	case 2, -2:
		loc, err := time.LoadLocation("America/Sao_Paulo")
		if err != nil {
			t.Fatal(err)
		}
		return loc
	case 3, -3:
		return time.Local
	default:
		return time.FixedZone("fixed", int(sel)*60)
	}
}

// TestWeekSlotMatchesCalendar holds the integer path to the calendar at
// the edges: slot and day boundaries, pre-1970 and far-future instants,
// the ±2⁶² cut-over, the ends of time.Time's range, other locations and
// monotonic readings.
func TestWeekSlotMatchesCalendar(t *testing.T) {
	lisbon := weekSlotLocation(t, 1)
	var cases []time.Time
	for _, base := range []time.Time{
		monday,
		time.Unix(0, 0).UTC(),
		time.Date(1969, 12, 29, 0, 0, 0, 0, time.UTC), // the Monday before the epoch
		time.Date(1900, 3, 1, 0, 0, 0, 0, time.UTC),
		time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC),
		time.Date(275760, 9, 13, 0, 0, 0, 0, time.UTC),
		time.Unix(1<<62-1, 0).UTC(),
		time.Unix(-1<<62+1, 0).UTC(),
		time.Unix(1<<62, 0).UTC(),
		time.Unix(-1<<62, 0).UTC(),
		time.Unix(math.MaxInt64, 999999999).UTC(),
		time.Unix(math.MinInt64, 0).UTC(),
		time.Date(2004, 3, 28, 0, 59, 0, 0, lisbon), // the spring-forward hour
		time.Date(2003, 10, 26, 1, 30, 0, 0, lisbon),
		time.Now(),       // Local, monotonic reading
		time.Now().UTC(), // UTC, no reading
	} {
		for _, d := range []time.Duration{0, -1, 1, 15*time.Minute - 1, 15 * time.Minute, -24 * time.Hour, 7 * 24 * time.Hour} {
			cases = append(cases, base.Add(d))
		}
	}
	for _, at := range cases {
		if got, want := WeekSlot(at), weekSlotCalendar(at); got != want {
			t.Errorf("WeekSlot(%v) = %d, calendar says %d", at, got, want)
		}
	}
}

// FuzzWeekSlot: the integer path and the calendar agree on every
// instant in every location.
func FuzzWeekSlot(f *testing.F) {
	f.Add(int64(1065398400), int64(0), int16(0))   // Monday 2003-10-06 00:00 UTC
	f.Add(int64(-1), int64(999999999), int16(0))   // the last nanosecond before the epoch
	f.Add(int64(-62135596800), int64(0), int16(0)) // year 1
	f.Add(int64(1<<62-1), int64(0), int16(5))      // the cut-over, fixed offset
	f.Add(int64(math.MaxInt64), int64(999999999), int16(0))
	f.Add(int64(1080435540), int64(0), int16(1)) // Lisbon, spring forward
	f.Add(int64(1067135400), int64(0), int16(2)) // São Paulo
	f.Fuzz(func(t *testing.T, sec, nsec int64, sel int16) {
		at := time.Unix(sec, nsec).In(weekSlotLocation(t, sel))
		if got, want := WeekSlot(at), weekSlotCalendar(at); got != want {
			t.Fatalf("WeekSlot(%v) = %d, calendar says %d", at, got, want)
		}
	})
}
