package analysis

import (
	"time"

	"winlab/internal/stats"
)

// SessionStats summarises the detected machine sessions (§5.2.1 and the
// right plot of Figure 4). A detected session is a maximal run of one
// machine's consecutive same-boot samples; its length is the uptime the
// run's last sample reports, which underestimates the true length by up
// to one period — the same bias the paper's methodology has. Reboots
// entirely between two samples merge into one detected session, so a
// 15-minute period loses the very short cycles only SMART counters
// reveal (PowerCycleStats.UndetectedRatio).
type SessionStats struct {
	Count  int
	Mean   time.Duration // the paper reports 15 h 55 m
	StdDev time.Duration // 26.65 h

	// Hist is the distribution of session lengths up to HistCap; sessions
	// beyond it are the histogram's Over() mass. The paper uses 96 h.
	Hist    *stats.Histogram
	HistCap time.Duration

	// ShortFraction is the fraction of sessions within HistCap (98.7% in
	// the paper); ShortUptimeFraction is their share of cumulated uptime
	// (87.93%).
	ShortFraction       float64
	ShortUptimeFraction float64
}
