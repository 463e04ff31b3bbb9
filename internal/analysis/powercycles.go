package analysis

import "time"

// PowerCycleStats reproduces §5.2.2: machine stability seen through the
// SMART counters instead of the sampling methodology. Per machine, the
// cycles in the monitoring window are the difference between the SMART
// cycle counter of its last and first samples, plus one: the boot that
// produced the first sample is itself a cycle the difference misses.
type PowerCycleStats struct {
	// Monitoring window (first to last sample of each machine).
	TotalCycles      int64   // the paper reports 13,871
	AvgPerMachine    float64 // 82.57
	SDPerMachine     float64 // 37.05
	CyclesPerDay     float64 // 1.07
	DetectedSessions int     // sessions the sampling methodology saw (10,688)
	// UndetectedRatio is TotalCycles / DetectedSessions − 1: the share of
	// power cycles invisible to 15-minute sampling (~30% in the paper).
	UndetectedRatio float64

	// Uptime per power cycle during the monitoring window, averaged over
	// machines (13 h 54 m, σ ≈ 8 h in the paper).
	UptimePerCycle   time.Duration
	UptimePerCycleSD time.Duration

	// Lifetime uptime per power cycle from the raw SMART counters at the
	// end of the experiment (6.46 h, σ 4.78 h in the paper).
	LifetimePerCycle   time.Duration
	LifetimePerCycleSD time.Duration
}
