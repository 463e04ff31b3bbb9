package analysis

import (
	"time"

	"winlab/internal/stats"
	"winlab/internal/trace"
)

// AvailabilityPoint is one iteration of the Figure 3 time series.
type AvailabilityPoint struct {
	Iter      int
	Time      time.Time
	PoweredOn int // machines that answered the probe
	UserFree  int // of those, machines with no (effective) login session
}

// AvailabilitySeries is the Figure 3 data: powered-on and user-free
// machine counts per iteration, with their averages. User-free machines
// are powered-on machines without an occupied session, where sessions
// older than the forgotten threshold count as non-occupied.
type AvailabilitySeries struct {
	Points       []AvailabilityPoint
	AvgPoweredOn float64 // the paper reports 84.87
	AvgUserFree  float64 // the paper reports 57.29
}

// MachineUptime is one machine's cumulated uptime over the experiment
// (Figure 4, left): the fraction of probe attempts it answered, and that
// availability expressed in "nines". Results.Uptimes lists them in
// descending ratio order, like the paper's figure.
//
// The numerator counts distinct iterations answered, not raw samples, so
// a trace carrying duplicate samples for one machine in one iteration (a
// collector retry bug, a careless merge — the invariant checker's
// KindDuplicateSample) cannot push the ratio above 1. The denominator is
// per-machine: a partial-lifetime machine (scenario fleet churn) is only
// attempted during the iterations it was a fleet member for.
type MachineUptime struct {
	Machine string
	Ratio   float64
	Nines   float64
}

// machineAttempts returns how many of the trace's iterations the machine
// was a fleet member for — the per-machine uptime denominator.
func machineAttempts(m *trace.MachineInfo, iterations []trace.Iteration) int {
	if !m.PartialLifetime() {
		return len(iterations)
	}
	n := 0
	for i := range iterations {
		if m.ActiveAt(iterations[i].Iter) {
			n++
		}
	}
	return n
}

// CountAbove returns how many machines have an uptime ratio strictly above
// r. The paper reports 30 machines above 0.5, fewer than 10 above 0.8 and
// none above 0.9.
func CountAbove(us []MachineUptime, r float64) int {
	n := 0
	for _, u := range us {
		if u.Ratio > r {
			n++
		}
	}
	return n
}

// FreeMachineHeat collapses the Figure 3 series into a 7×24 time-of-week
// grid: the mean number of user-free machines per hour of the week, the
// "harvest windows" view of availability (rendered by report.Heatmap).
func FreeMachineHeat(s AvailabilitySeries) []float64 {
	var acc [7 * 24]stats.Running
	for _, p := range s.Points {
		day := (int(p.Time.Weekday()) + 6) % 7
		acc[day*24+p.Time.Hour()].Add(float64(p.UserFree))
	}
	out := make([]float64, len(acc))
	for i := range acc {
		out[i] = acc[i].Mean()
	}
	return out
}
