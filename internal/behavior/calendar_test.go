package behavior

import (
	"testing"
	"time"

	"winlab/internal/rng"
)

var monday = time.Date(2003, 10, 6, 0, 0, 0, 0, time.UTC) // a Monday

// NextClose returns the next instant at or after t when the labs close
// (4 am on weekday nights, 9 pm on Saturday) and ok=true. If the labs
// are closed at t it returns (t, true). A calendar that never closes —
// AlwaysOpen, or any hour pattern with no closed hour — reports
// ok=false instead of scanning forever; the scan is bounded to one week
// of wall-clock hours, which covers every weekly pattern.
func (c Calendar) NextClose(t time.Time) (time.Time, bool) {
	if c.AlwaysOpen {
		return time.Time{}, false
	}
	if !c.IsOpen(t) {
		return t, true
	}
	u := wallHour(t.In(c.loc()))
	for i := 0; i < 8*24; i++ {
		if !c.IsOpen(u) && u.After(t) {
			return u, true
		}
		u = nextWallHour(u)
	}
	return time.Time{}, false
}

// ForLab returns the classes of one lab, in weekly order.
func (t Timetable) ForLab(lb string) []Class {
	var out []Class
	for _, c := range t.Classes {
		if c.Lab == lb {
			out = append(out, c)
		}
	}
	return out
}

func defaultCal() Calendar {
	cfg := DefaultConfig(1)
	return Calendar{OpenHour: cfg.OpenHour, NightClose: cfg.NightClose, SatCloseHour: cfg.SatCloseHour}
}

func TestCalendarWeekPattern(t *testing.T) {
	cal := defaultCal()
	cases := []struct {
		day  int // offset from Monday
		hour int
		open bool
	}{
		{0, 0, false},  // Monday 00:00 — weekend closure runs to 8 am
		{0, 7, false},  // Monday 07:00
		{0, 8, true},   // Monday 08:00 opens
		{0, 23, true},  // Monday 23:00
		{1, 2, true},   // Tuesday 02:00 (open until 4 am)
		{1, 4, false},  // Tuesday 04:00 closes
		{1, 7, false},  // Tuesday 07:59
		{1, 8, true},   // Tuesday 08:00
		{5, 2, true},   // Saturday 02:00 (Friday-night carry-over)
		{5, 5, false},  // Saturday 05:00
		{5, 10, true},  // Saturday 10:00
		{5, 20, true},  // Saturday 20:00
		{5, 21, false}, // Saturday 21:00 — weekend closure begins
		{6, 12, false}, // Sunday noon
		{7, 8, true},   // next Monday 08:00
	}
	for _, c := range cases {
		at := monday.AddDate(0, 0, c.day).Add(time.Duration(c.hour) * time.Hour)
		if got := cal.IsOpen(at); got != c.open {
			t.Errorf("IsOpen(%s %02d:00) = %v, want %v", at.Weekday(), c.hour, got, c.open)
		}
	}
}

func TestCalendarOpenHoursPerWeek(t *testing.T) {
	cal := defaultCal()
	open := 0
	for h := 0; h < 7*24; h++ {
		if cal.IsOpen(monday.Add(time.Duration(h) * time.Hour)) {
			open++
		}
	}
	// Mon 8–24 (16) + Tue–Fri 0–4,8–24 (4×20) + Sat 0–4,8–21 (17) = 113.
	if open != 113 {
		t.Errorf("open hours per week = %d, want 113", open)
	}
}

func TestNextClose(t *testing.T) {
	cal := defaultCal()
	at := monday.Add(10 * time.Hour) // Monday 10:00
	got, ok := cal.NextClose(at)
	want := monday.AddDate(0, 0, 1).Add(4 * time.Hour) // Tuesday 04:00
	if !ok || !got.Equal(want) {
		t.Errorf("NextClose = %v, %v, want %v, true", got, ok, want)
	}
	// Closed time returns itself.
	closed := monday.Add(5 * time.Hour)
	if got, ok := cal.NextClose(closed); !ok || !got.Equal(closed) {
		t.Error("NextClose while closed should return t, true")
	}
	// Saturday afternoon closes at 21:00.
	sat := monday.AddDate(0, 0, 5).Add(15 * time.Hour)
	if got, ok := cal.NextClose(sat); !ok || got.Hour() != 21 {
		t.Errorf("Saturday NextClose = %v, %v", got, ok)
	}
}

// A calendar that never closes must report ok=false instead of looping
// forever (the pre-fix NextClose hung on exactly this input).
func TestNextCloseNeverCloses(t *testing.T) {
	cal := Calendar{AlwaysOpen: true}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, ok := cal.NextClose(monday.Add(10 * time.Hour)); ok {
			t.Error("AlwaysOpen NextClose reported a close instant")
		}
		if !cal.IsOpen(monday) || !cal.IsOpen(monday.AddDate(0, 0, 6)) {
			t.Error("AlwaysOpen calendar reported closed")
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("NextClose did not terminate on a never-closing calendar")
	}
}

// The hour pattern must be wall-clock correct in the calendar's own
// location across DST transitions: the same UTC instant maps to
// different local hours before and after a shift, and the close scan
// must follow local 4 am, not UTC-aligned hour boundaries.
func TestCalendarDST(t *testing.T) {
	loc, err := time.LoadLocation("America/New_York")
	if err != nil {
		t.Skipf("zoneinfo unavailable: %v", err)
	}
	cfg := DefaultConfig(1)
	cal := Calendar{OpenHour: cfg.OpenHour, NightClose: cfg.NightClose, SatCloseHour: cfg.SatCloseHour, Loc: loc}

	// 2025: spring forward Sunday March 9, fall back Sunday November 2.
	// Monday March 10 is EDT (UTC-4); Monday November 3 is EST (UTC-5).
	cases := []struct {
		utc  time.Time
		open bool
		why  string
	}{
		{time.Date(2025, 3, 10, 11, 30, 0, 0, time.UTC), false, "Mon Mar 10 07:30 EDT — before open"},
		{time.Date(2025, 3, 10, 12, 30, 0, 0, time.UTC), true, "Mon Mar 10 08:30 EDT — open"},
		{time.Date(2025, 11, 3, 12, 30, 0, 0, time.UTC), false, "Mon Nov 3 07:30 EST — before open"},
		{time.Date(2025, 11, 3, 13, 30, 0, 0, time.UTC), true, "Mon Nov 3 08:30 EST — open"},
	}
	for _, c := range cases {
		if got := cal.IsOpen(c.utc); got != c.open {
			t.Errorf("IsOpen(%s) = %v, want %v (%s)", c.utc, got, c.open, c.why)
		}
	}

	// Night close lands at local 4 am on both sides of the shift: the
	// Monday-evening session closes Tuesday 04:00 EDT (08:00 UTC) in
	// March and Tuesday 04:00 EST (09:00 UTC) in November.
	for _, c := range []struct {
		from, want time.Time
	}{
		{time.Date(2025, 3, 10, 10, 0, 0, 0, loc), time.Date(2025, 3, 11, 4, 0, 0, 0, loc)},
		{time.Date(2025, 11, 3, 10, 0, 0, 0, loc), time.Date(2025, 11, 4, 4, 0, 0, 0, loc)},
	} {
		got, ok := cal.NextClose(c.from)
		if !ok || !got.Equal(c.want) {
			t.Errorf("NextClose(%s) = %v, %v, want %v", c.from, got, ok, c.want)
		}
		if got.In(loc).Hour() != 4 {
			t.Errorf("NextClose(%s) local hour = %d, want 4", c.from, got.In(loc).Hour())
		}
	}
	marClose, _ := cal.NextClose(time.Date(2025, 3, 10, 10, 0, 0, 0, loc))
	novClose, _ := cal.NextClose(time.Date(2025, 11, 3, 10, 0, 0, 0, loc))
	if marClose.UTC().Hour() == novClose.UTC().Hour() {
		t.Error("EDT and EST closes map to the same UTC hour — calendar is not wall-clock correct")
	}
}

func TestGenerateTimetable(t *testing.T) {
	cfg := DefaultConfig(1)
	labs := []string{"L01", "L02", "L03", "L06"}
	tt := GenerateTimetable(cfg, labs, rng.Derive(1, "tt"))

	if len(tt.Classes) == 0 {
		t.Fatal("empty timetable")
	}
	hogs := 0
	for _, c := range tt.Classes {
		if c.Day == time.Sunday {
			t.Errorf("class on Sunday: %+v", c)
		}
		if c.StartHour < 8 || c.StartHour > 18 {
			t.Errorf("class outside teaching grid: %+v", c)
		}
		if c.CPUHog {
			hogs++
			if c.Day != cfg.CPUHogDay || c.StartHour != cfg.CPUHogStartHour {
				t.Errorf("CPU-hog class at wrong slot: %+v", c)
			}
		}
	}
	if hogs != 2 { // L03 and L06
		t.Errorf("CPU-hog classes = %d, want 2", hogs)
	}
	// No overlapping classes within a lab on the same day.
	for _, lb := range labs {
		classes := tt.ForLab(lb)
		for i := range classes {
			for j := i + 1; j < len(classes); j++ {
				a, b := classes[i], classes[j]
				if a.Day == b.Day && overlaps(a, b) {
					t.Errorf("%s: overlapping classes %+v and %+v", lb, a, b)
				}
			}
		}
	}
	if len(tt.Classes) == 0 {
		t.Error("empty timetable")
	}
}

func TestGenerateTimetableDeterministic(t *testing.T) {
	cfg := DefaultConfig(1)
	labs := []string{"L01", "L02"}
	a := GenerateTimetable(cfg, labs, rng.Derive(9, "tt"))
	b := GenerateTimetable(cfg, labs, rng.Derive(9, "tt"))
	if len(a.Classes) != len(b.Classes) {
		t.Fatal("timetables differ in size")
	}
	for i := range a.Classes {
		if a.Classes[i] != b.Classes[i] {
			t.Fatalf("class %d differs: %+v vs %+v", i, a.Classes[i], b.Classes[i])
		}
	}
}

func TestOverlaps(t *testing.T) {
	a := Class{StartHour: 8, Duration: 2 * time.Hour}
	b := Class{StartHour: 10, Duration: 2 * time.Hour}
	if overlaps(a, b) {
		t.Error("back-to-back classes reported overlapping")
	}
	c := Class{StartHour: 9, Duration: 2 * time.Hour}
	if !overlaps(a, c) {
		t.Error("overlapping classes not detected")
	}
}
