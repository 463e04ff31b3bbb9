package analysis

import (
	"time"

	"winlab/internal/stats"
)

// WeeklyProfiles is the Figure 5 data: the weekly distribution (15-minute
// slots, Monday-first) of CPU idleness, memory and swap load, and network
// rates. Sample-level metrics (memory, swap) aggregate by sample slot;
// interval metrics (CPU idleness, network rates) by the slot of the
// closing sample.
type WeeklyProfiles struct {
	CPUIdlePct stats.WeeklyProfile
	RAMLoadPct stats.WeeklyProfile
	SwapLoad   stats.WeeklyProfile
	SentBps    stats.WeeklyProfile
	RecvBps    stats.WeeklyProfile
}

// MinCPUIdleSlot returns the weekly slot with the lowest mean CPU idleness
// and its value — the paper's Tuesday-afternoon dip below 91%.
func (w *WeeklyProfiles) MinCPUIdleSlot() (slot int, idlePct float64) {
	slot, idlePct = -1, 101
	for i := range w.CPUIdlePct.Slots {
		r := &w.CPUIdlePct.Slots[i]
		if r.N() == 0 {
			continue
		}
		if m := r.Mean(); m < idlePct {
			idlePct = m
			slot = i
		}
	}
	return slot, idlePct
}

// SlotWeekday returns the weekday of a weekly slot (slot 0 is Monday).
func SlotWeekday(slot int) time.Weekday {
	day := slot / 96
	return time.Weekday((day + 1) % 7) // Monday-first → Go's Sunday-first
}

// IdlenessWhen returns the CPU-idleness statistics over the weekly slots
// whose start satisfies pred — e.g. "labs closed" hours. The paper's
// §5.3 observation that absolute idleness concentrates in nights and
// weekends is the comparison IdlenessWhen(closed) vs IdlenessWhen(open).
// pred sees each slot's start in one reference week (UTC, Monday
// 2001-01-01), so it must depend only on the UTC weekday and time of day
// at 15-minute resolution, as a lab calendar does.
func (w *WeeklyProfiles) IdlenessWhen(pred func(time.Time) bool) stats.Sum {
	week := time.Date(2001, time.January, 1, 0, 0, 0, 0, time.UTC)
	var r stats.Sum
	for i := range w.CPUIdlePct.Slots {
		if pred(week.Add(stats.SlotTime(i))) {
			r = r.Merge(w.CPUIdlePct.Slots[i])
		}
	}
	return r
}
