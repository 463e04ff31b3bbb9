package stats

import "time"

// SlotsPerWeek is the number of 15-minute slots in one week, the resolution
// of the paper's weekly-distribution figures (Figures 5 and 6).
const SlotsPerWeek = 7 * 24 * 4

// SlotDuration is the width of one weekly-profile slot.
const SlotDuration = 15 * time.Minute

const (
	secondsPerDay  = 24 * 60 * 60
	secondsPerWeek = 7 * secondsPerDay
	secondsPerSlot = int64(SlotDuration / time.Second)
)

// WeeklyProfile accumulates observations keyed by their position within the
// week (15-minute resolution, week starting Monday 00:00) and reports the
// per-slot mean. It reproduces the aggregation behind the paper's weekly
// distribution plots. Its slots are exact Sums, so a profile's state
// depends only on which observations fell in each slot.
type WeeklyProfile struct {
	Slots [SlotsPerWeek]Sum
}

// WeekSlot maps a time to its 15-minute slot index within the week.
// Slot 0 is Monday 00:00–00:15, matching the paper's Monday-labelled x axes.
//
// For a UTC instant — every decoded trace time — the slot is its Unix
// seconds' offset into the week over the slot width, two integer
// divisions. Any other location keeps the calendar path, because its
// own wall clock (offset, daylight saving) decides the slot; so do UTC
// instants beyond ±2⁶² s, where the offset arithmetic could wrap.
func WeekSlot(t time.Time) int {
	if t.Location() == time.UTC {
		if sec := t.Unix(); sec > -1<<62 && sec < 1<<62 {
			// 1970-01-01 was a Thursday, three days past a Monday 00:00.
			w := (sec + 3*secondsPerDay) % secondsPerWeek
			if w < 0 {
				w += secondsPerWeek
			}
			return int(w / secondsPerSlot)
		}
	}
	wd := int(t.Weekday()) // Sunday = 0
	day := (wd + 6) % 7    // Monday = 0
	return day*24*4 + t.Hour()*4 + t.Minute()/15
}

// SlotTime returns the offset from Monday 00:00 of the start of slot i.
func SlotTime(i int) time.Duration {
	return time.Duration(i) * SlotDuration
}

// Add records an observation at time t.
func (w *WeeklyProfile) Add(t time.Time, x float64) {
	w.Slots[WeekSlot(t)].Add(x)
}

// Merge folds another profile into w slot by slot, as if every
// observation had been added to w. Used to combine the per-shard
// profiles of a partitioned stream.
func (w *WeeklyProfile) Merge(o *WeeklyProfile) {
	for i := range w.Slots {
		w.Slots[i] = w.Slots[i].Merge(o.Slots[i])
	}
}

// Dropped returns how many observations the slots skipped (see Sum).
func (w *WeeklyProfile) Dropped() int64 {
	var n int64
	for i := range w.Slots {
		n += w.Slots[i].Dropped()
	}
	return n
}

// Means returns the per-slot means. Slots with no observations yield 0.
func (w *WeeklyProfile) Means() []float64 {
	out := make([]float64, SlotsPerWeek)
	for i := range w.Slots {
		out[i] = w.Slots[i].Mean()
	}
	return out
}
