package scenario

import (
	"fmt"
	"sort"
)

// Bundled returns a fresh copy of one of the repository's built-in
// scenarios. Each models a fleet-scale situation the paper's single
// static semester cannot express, and carries the claim set `make
// scenarios` gates in CI (claims are calibrated on seeds 1–3 at the
// scenario's own Days).
func Bundled(name string) (*Config, error) {
	b, ok := bundled()[name]
	if !ok {
		return nil, fmt.Errorf("scenario: no bundled scenario %q (have %v)", name, Names())
	}
	c := b()
	return c, nil
}

// Names lists the bundled scenarios in sorted order.
func Names() []string {
	m := bundled()
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func bundled() map[string]func() *Config {
	return map[string]func() *Config{
		"baseline":     baseline,
		"lockdown":     lockdown,
		"refresh-year": refreshYear,
		"server-mix":   serverMix,
		"multi-campus": multiCampus,
	}
}

// baseline is the paper's semester untouched: the reference every other
// scenario's claims are measured against. Applying it changes nothing
// (the no-op identity test rides on this).
func baseline() *Config {
	return &Config{
		Name:        "baseline",
		Description: "The paper's 11-lab semester, unmodified; the claims reference.",
	}
}

// lockdown is a campus emptying out over week two and staying shut:
// arrivals and class attendance collapse over a ten-day ramp while
// leftover machines are powered down more eagerly. The ramp is the
// point — it is a *slow* regime shift, the labelled negative corpus
// for the availability-collapse detector (a page here is a false
// positive; see tools/scenariobench -collapse-corpus).
func lockdown() *Config {
	return &Config{
		Name:        "lockdown",
		Description: "Campus lockdown: arrivals and attendance collapse over a 10-day ramp from day 7.",
		Days:        35,
		Phases: []Phase{
			{Name: "lockdown", StartDay: 7, RampDays: 10, Arrival: 0.05, Attendance: 0.03, Power: 1.3},
		},
		Claims: []Claim{
			{Metric: MetricAvailability, Direction: DirDown, MinShift: 0.10},
			{Metric: MetricEquivalence, Direction: DirDown, MinShift: 0.10},
			{Metric: MetricHarvestWork, Direction: DirDown, MinShift: 0.10},
		},
	}
}

// refreshYear replaces the two slowest Pentium III rooms (L09, L10 —
// 25 machines) with L03-class Pentium 4 hardware at the day-28 boot
// boundary: every old machine leaves and a replacement joins under a
// new ID with a fresh disk. Retiring-by-replacement keeps SMART
// counters monotone per machine ID; the trace catalogue carries both
// generations with [Join, Leave) lifetime stamps.
func refreshYear() *Config {
	c := &Config{
		Name:        "refresh-year",
		Description: "Hardware refresh: L09+L10 replaced with Pentium 4 machines at day 28.",
		Days:        56,
		Claims: []Claim{
			{Metric: MetricHarvestWork, Direction: DirUp, MinShift: 0.02},
			{Metric: MetricAvailability, Direction: DirFlat, MinShift: 0.10},
		},
	}
	refresh := func(labName string, n int) {
		for i := 1; i <= n; i++ {
			old := fmt.Sprintf("%s-M%02d", labName, i)
			repl := fmt.Sprintf("%s-R%02d", labName, i)
			c.Lifecycle = append(c.Lifecycle,
				Lifecycle{Machine: old, LeaveDay: 28},
				Lifecycle{Machine: repl, JoinDay: 28},
			)
			c.Extras = append(c.Extras, Machine{
				ID: repl, Lab: labName,
				CPUModel: "Intel Pentium 4", CPUGHz: 2.6, RAMMB: 512,
				DiskGB: 55.8, IntIndex: 39.3, FPIndex: 36.7, BaseImgGB: 16.0,
			})
		}
	}
	refresh("L09", 9)
	refresh("L10", 16)
	return c
}

// serverMix adds an always-on eight-machine server pool next to the
// classrooms: powered from the start, never claimed by students or
// classes, never swept — the "dedicated nodes amid scavenged nodes"
// mix of the condor-style deployments in the related work.
func serverMix() *Config {
	c := &Config{
		Name:        "server-mix",
		Description: "Eight always-on servers (lab SRV) alongside the classroom fleet.",
		Days:        35,
		AlwaysOn:    []string{"SRV"},
		Claims: []Claim{
			{Metric: MetricAvailability, Direction: DirUp, MinShift: 0.02},
			{Metric: MetricEquivalence, Direction: DirUp, MinShift: 0.02},
			{Metric: MetricHarvestWork, Direction: DirUp, MinShift: 0.02},
		},
	}
	for i := 1; i <= 8; i++ {
		c.Extras = append(c.Extras, Machine{
			ID: fmt.Sprintf("SRV-S%02d", i), Lab: "SRV",
			CPUModel: "Intel Xeon", CPUGHz: 2.8, RAMMB: 1024,
			DiskGB: 74.5, IntIndex: 42.0, FPIndex: 40.0, BaseImgGB: 12.0,
		})
	}
	return c
}

// multiCampus spreads the fleet across three time zones: the L05–L08
// rooms keep New York wall clocks (DST shifts included), L09–L11 keep
// Tokyo's, and the rest stay on the default zone. Opening hours are
// the default pattern *in local time*, so the campuses fill and empty
// out of phase; fleet-wide daily structure smears but the totals hold.
func multiCampus() *Config {
	return &Config{
		Name:        "multi-campus",
		Description: "Three campuses: default zone, America/New_York (L05–L08), Asia/Tokyo (L09–L11).",
		Days:        35,
		Calendars: map[string]LabCalendar{
			"L05": {Location: "America/New_York"},
			"L06": {Location: "America/New_York"},
			"L07": {Location: "America/New_York"},
			"L08": {Location: "America/New_York"},
			"L09": {Location: "Asia/Tokyo"},
			"L10": {Location: "Asia/Tokyo"},
			"L11": {Location: "Asia/Tokyo"},
		},
		Claims: []Claim{
			{Metric: MetricAvailability, Direction: DirFlat, MinShift: 0.15},
			{Metric: MetricEquivalence, Direction: DirFlat, MinShift: 0.15},
		},
	}
}
