package stats

import (
	"testing"
	"time"
)

// monday is a Monday 00:00 UTC.
var monday = time.Date(2003, 10, 6, 0, 0, 0, 0, time.UTC)

func TestWeekSlot(t *testing.T) {
	cases := []struct {
		t    time.Time
		want int
	}{
		{monday, 0},
		{monday.Add(15 * time.Minute), 1},
		{monday.Add(14 * time.Minute), 0},
		{monday.Add(24 * time.Hour), 96}, // Tuesday 00:00
		{monday.Add(6*24*time.Hour + 23*time.Hour + 45*time.Minute), SlotsPerWeek - 1}, // Sunday 23:45
		{monday.AddDate(0, 0, 7), 0}, // next Monday wraps
	}
	for _, c := range cases {
		if got := WeekSlot(c.t); got != c.want {
			t.Errorf("WeekSlot(%v) = %d, want %d", c.t, got, c.want)
		}
	}
}

func TestWeekSlotRange(t *testing.T) {
	for i := 0; i < 7*24*4; i++ {
		at := monday.Add(time.Duration(i) * 15 * time.Minute)
		got := WeekSlot(at)
		if got != i {
			t.Fatalf("slot(%v) = %d, want %d", at, got, i)
		}
	}
}

func TestSlotTime(t *testing.T) {
	if SlotTime(0) != 0 {
		t.Error("SlotTime(0)")
	}
	if SlotTime(96) != 24*time.Hour {
		t.Error("SlotTime(96)")
	}
}

func TestWeeklyProfileAggregation(t *testing.T) {
	var w WeeklyProfile
	// Two observations in slot 0 across two different weeks.
	w.Add(monday, 10)
	w.Add(monday.AddDate(0, 0, 7), 30)
	// One observation Tuesday 12:00.
	w.Add(monday.Add(36*time.Hour), 50)

	means := w.Means()
	if means[0] != 20 {
		t.Errorf("slot 0 mean = %v, want 20", means[0])
	}
	tueNoon := 96 + 12*4
	if means[tueNoon] != 50 {
		t.Errorf("tuesday noon mean = %v, want 50", means[tueNoon])
	}
	if n := w.Slots[0].N(); n != 2 {
		t.Errorf("slot 0 holds %d observations, want 2 (one per week)", n)
	}
}

func TestWeeklyProfileDayHour(t *testing.T) {
	var w WeeklyProfile
	// Fill all four slots of Monday 03:00: slots 12–15.
	for q := 0; q < 4; q++ {
		w.Add(monday.Add(3*time.Hour+time.Duration(q)*15*time.Minute), float64(q))
	}
	means := w.Means()
	for q := 0; q < 4; q++ {
		if means[12+q] != float64(q) {
			t.Errorf("Monday 03:%02d mean = %v, want %d", 15*q, means[12+q], q)
		}
	}
	if means[SlotsPerWeek-1] != 0 {
		t.Errorf("untouched slot mean = %v, want 0", means[SlotsPerWeek-1])
	}
}

func TestWeeklyProfileEmpty(t *testing.T) {
	var w WeeklyProfile
	for i, m := range w.Means() {
		if m != 0 || w.Slots[i].N() != 0 {
			t.Fatalf("empty profile: slot %d has mean %v over %d observations", i, m, w.Slots[i].N())
		}
	}
}
