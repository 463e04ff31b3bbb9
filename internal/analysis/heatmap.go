package analysis

import (
	"time"

	"winlab/internal/stats"
	"winlab/internal/trace"
)

// HeatHours is the resolution of the hour-of-week heatmaps: 7 days × 24
// hours, Monday-first like the weekly profiles.
const HeatHours = 7 * 24

// MachineHeat is one machine's hour-of-week availability profile: for
// each of the 168 cells, the fraction of that cell's iterations the
// machine answered. It is the per-machine decomposition of the paper's
// availability figures — the dashboard view that shows which rooms power
// down overnight and which machines are always on.
type MachineHeat struct {
	Machine string
	Lab     string
	Uptime  []float64 // HeatHours cells, Monday 00:00 first
}

// HeatmapData bundles the hour-of-week heatmaps the query layer serves:
// the fleet-level mean user-free machine count per cell (the harvest
// windows of Figure 3, FreeMachineHeat) and the per-machine availability
// grid. Machines appear in catalogue order; a machine with no samples
// gets an all-zero row. A cell's denominator is the number of iterations
// whose start fell in it, and its numerator counts distinct iterations
// answered, the same duplicate-sample correction MachineUptime applies.
type HeatmapData struct {
	IterationsPerCell []int     // probe iterations that fell in each cell
	FreeMachines      []float64 // mean user-free machines per cell
	Machines          []MachineHeat
}

// heatCell maps a time to its hour-of-week cell (Monday 00:00 is cell 0):
// four 15-minute weekly-profile slots per cell.
func heatCell(t time.Time) int { return stats.WeekSlot(t) / 4 }

// Heatmap computes the hour-of-week heatmaps with the given forgotten
// threshold (it decides which machines count as user-free). It runs the
// whole engine pass and returns one field of it; callers that need more
// than the heatmap should call All once.
func Heatmap(d *trace.Dataset, threshold time.Duration) *HeatmapData {
	o := Options{}.withDefaults()
	o.Threshold = threshold
	return allFrozen(d, o).Heatmap
}

// UptimeHistogram bins the per-machine uptime ratios into equal-width
// bins over [0, 1] — the distribution behind Figure 4 (left), served as
// the query layer's uptime histogram. Ratios outside [0, 1] (possible
// only on traces the invariant checker would flag) clamp to the edge
// bins.
func UptimeHistogram(us []MachineUptime, bins int) []int {
	if bins <= 0 {
		bins = 20
	}
	out := make([]int, bins)
	for _, u := range us {
		i := int(u.Ratio * float64(bins))
		if i >= bins {
			i = bins - 1
		}
		if i < 0 {
			i = 0
		}
		out[i]++
	}
	return out
}
