package query

import (
	"time"

	"winlab/internal/anomaly"
)

// The response DTOs mirror the analysis artefacts in wire-friendly form:
// flat fields, snake_case keys, unix-second timestamps in dense series.
// encoding/json marshals them as they are: a snapshot body once per
// endpoint per epoch, /api/events once per request, and cache hits
// serve the stored bytes. Hand-rolled JSON is kept for the per-event
// and per-probe streaming writers only (package jsonx). The wire bytes
// are pinned by TestAPIBytesPinned.

// Meta identifies the snapshot epoch a response was computed from. Every
// cached response embeds it, and /api/epoch serves it alone as the cheap
// polling endpoint: a dashboard re-fetches the heavy endpoints only when
// the epoch advanced.
type Meta struct {
	Epoch       uint64    `json:"epoch"`
	Fingerprint string    `json:"fingerprint"` // hex trace.Index fingerprint
	Start       time.Time `json:"start"`
	End         time.Time `json:"end"`
	PeriodSec   float64   `json:"period_sec"`
	Iterations  int       `json:"iterations"`
	Samples     int       `json:"samples"`
	Machines    int       `json:"machines"`
}

// Column is one Table 2 column (paper §4.2).
type Column struct {
	Samples     int     `json:"samples"`
	UptimePct   float64 `json:"uptime_pct"`
	CPUIdlePct  float64 `json:"cpu_idle_pct"`
	RAMLoadPct  float64 `json:"ram_load_pct"`
	SwapLoadPct float64 `json:"swap_load_pct"`
	DiskUsedGB  float64 `json:"disk_used_gb"`
	SentBps     float64 `json:"sent_bps"`
	RecvBps     float64 `json:"recv_bps"`
}

// Summary is /api/summary: the headline numbers of every paper section
// in one document — Table 2, the Figure 3 averages, the §5.4 equivalence
// ratios, the §5.2 stability figures and the §6 harvest capacity.
type Summary struct {
	Meta                Meta    `json:"meta"`
	NoLogin             Column  `json:"no_login"`
	WithLogin           Column  `json:"with_login"`
	Both                Column  `json:"both"`
	AvgPoweredOn        float64 `json:"avg_powered_on"`
	AvgUserFree         float64 `json:"avg_user_free"`
	EquivalenceOccupied float64 `json:"equivalence_occupied"`
	EquivalenceFree     float64 `json:"equivalence_free"`
	EquivalenceTotal    float64 `json:"equivalence_total"`
	PowerCyclesTotal    int64   `json:"power_cycles_total"`
	PowerCyclesPerDay   float64 `json:"power_cycles_per_day"`
	LifetimePerCycleH   float64 `json:"lifetime_per_cycle_h"`
	SessionCount        int     `json:"session_count"`
	SessionMeanH        float64 `json:"session_mean_h"`
	FleetFreeRAMGB      float64 `json:"fleet_free_ram_gb"`
	FleetFreeDiskTB     float64 `json:"fleet_free_disk_tb"`
}

// AvailabilityPoint is one iteration of the Figure 3 series.
type AvailabilityPoint struct {
	Iter int   `json:"iter"`
	T    int64 `json:"t"` // unix seconds
	On   int   `json:"on"`
	Free int   `json:"free"`
}

// Availability is /api/availability: the fleet-wide per-iteration series.
type Availability struct {
	Meta   Meta                `json:"meta"`
	Points []AvailabilityPoint `json:"points"`
}

// Lab is one laboratory's usage summary (per-lab availability).
type Lab struct {
	Lab         string  `json:"lab"`
	Machines    int     `json:"machines"`
	UptimePct   float64 `json:"uptime_pct"`
	OccupiedPct float64 `json:"occupied_pct"`
	CPUIdlePct  float64 `json:"cpu_idle_pct"`
	RAMLoadPct  float64 `json:"ram_load_pct"`
	FreeRAMMB   float64 `json:"free_ram_mb"`
	FreeDiskGB  float64 `json:"free_disk_gb"`
}

// Labs is /api/labs.
type Labs struct {
	Meta Meta  `json:"meta"`
	Labs []Lab `json:"labs"`
}

// Machine is one machine's availability (per-machine availability).
type Machine struct {
	ID          string  `json:"id"`
	Lab         string  `json:"lab"`
	UptimeRatio float64 `json:"uptime_ratio"`
	Nines       float64 `json:"nines"`
}

// Machines is /api/machines, sorted by descending uptime like Figure 4.
type Machines struct {
	Meta     Meta      `json:"meta"`
	Machines []Machine `json:"machines"`
}

// Weekly is /api/weekly: the Figure 5 weekly profiles as per-slot means
// (672 15-minute slots, Monday-first).
type Weekly struct {
	Meta        Meta      `json:"meta"`
	SlotMinutes int       `json:"slot_minutes"`
	CPUIdlePct  []float64 `json:"cpu_idle_pct"`
	RAMLoadPct  []float64 `json:"ram_load_pct"`
	SwapLoadPct []float64 `json:"swap_load_pct"`
	SentBps     []float64 `json:"sent_bps"`
	RecvBps     []float64 `json:"recv_bps"`
}

// Equivalence is /api/equivalence: the §5.4 cluster-equivalence ratios
// and their weekly distribution (Figure 6).
type Equivalence struct {
	Meta           Meta      `json:"meta"`
	Occupied       float64   `json:"occupied"`
	Free           float64   `json:"free"`
	Total          float64   `json:"total"`
	WeeklyTotal    []float64 `json:"weekly_total"`
	WeeklyOccupied []float64 `json:"weekly_occupied"`
	WeeklyFree     []float64 `json:"weekly_free"`
}

// Uptimes is /api/uptimes: the uptime-ratio histogram plus the paper's
// threshold counts (30 machines above 0.5, <10 above 0.8, none above 0.9).
type Uptimes struct {
	Meta    Meta  `json:"meta"`
	Bins    int   `json:"bins"`
	Counts  []int `json:"counts"`
	Above50 int   `json:"above_50"`
	Above80 int   `json:"above_80"`
	Above90 int   `json:"above_90"`
}

// MachineHeatRow is one machine's hour-of-week availability row.
type MachineHeatRow struct {
	ID     string    `json:"id"`
	Lab    string    `json:"lab"`
	Uptime []float64 `json:"uptime"`
}

// Heatmap is /api/heatmap: the fleet harvest-window grid and the
// per-machine hour-of-week availability heatmap (168 cells each,
// Monday 00:00 first).
type Heatmap struct {
	Meta         Meta             `json:"meta"`
	Hours        int              `json:"hours"`
	FreeMachines []float64        `json:"free_machines"`
	Machines     []MachineHeatRow `json:"machines"`
}

// EventRecord is one anomaly event tagged with the snapshot epoch that
// was current when it was observed.
type EventRecord struct {
	Epoch uint64        `json:"epoch"`
	Event anomaly.Event `json:"event"`
}

// Events is /api/events: the retained anomaly event history. Unlike the
// snapshot endpoints it is dynamic (events arrive between epochs), so it
// carries its own epoch/total header instead of a Meta block.
type Events struct {
	Epoch  uint64        `json:"epoch"`
	Total  uint64        `json:"total"` // events ever logged, incl. evicted
	Events []EventRecord `json:"events"`
}
