package analysis

import (
	"time"

	"winlab/internal/stats"
	"winlab/internal/trace"
)

// Column is one column of the paper's Table 2: aggregate resource usage
// over a class of samples ("No login", "With login" or "Both").
type Column struct {
	Samples     int
	UptimePct   float64 // share of all probe attempts answered by this class
	CPUIdlePct  float64 // mean CPU idleness between consecutive samples
	RAMLoadPct  float64
	SwapLoadPct float64
	DiskUsedGB  float64
	SentBps     float64
	RecvBps     float64

	// Spread diagnostics (not printed by the paper but useful).
	CPUIdleSD float64
	RAMLoadSD float64
}

// Table2 is the paper's main results table.
type Table2 struct {
	Threshold time.Duration
	Reclass   ReclassifyStats
	NoLogin   Column
	WithLogin Column
	Both      Column
}

// table2Acc accumulates one column.
type table2Acc struct {
	samples int
	cpuIdle stats.Running
	ram     stats.Running
	swap    stats.Running
	disk    stats.Running
	sent    stats.Running
	recv    stats.Running
}

func (a *table2Acc) addSample(s *trace.Sample) {
	a.samples++
	a.ram.Add(float64(s.MemLoadPct))
	a.swap.Add(float64(s.SwapLoadPct))
	a.disk.Add(s.UsedDiskGB())
}

func (a *table2Acc) addInterval(idle, sent, recv float64) {
	a.cpuIdle.Add(idle)
	a.sent.Add(sent)
	a.recv.Add(recv)
}

func (a *table2Acc) column(attempts int) Column {
	c := Column{
		Samples:     a.samples,
		CPUIdlePct:  a.cpuIdle.Mean(),
		CPUIdleSD:   a.cpuIdle.StdDev(),
		RAMLoadPct:  a.ram.Mean(),
		RAMLoadSD:   a.ram.StdDev(),
		SwapLoadPct: a.swap.Mean(),
		DiskUsedGB:  a.disk.Mean(),
		SentBps:     a.sent.Mean(),
		RecvBps:     a.recv.Mean(),
	}
	if attempts > 0 {
		c.UptimePct = 100 * float64(a.samples) / float64(attempts)
	}
	return c
}

// MainResults computes Table 2 with the given forgotten threshold; a zero
// threshold disables reclassification. Samples are classified with the
// threshold: Forgotten samples are counted in the No-login column, exactly
// as §4.2 prescribes ("we consider samples reporting an interactive
// user-session equal or above than 10 hours as being captured on
// non-occupied machines").
//
// Memory, swap and disk statistics come from raw samples; CPU idleness and
// network rates come from consecutive same-boot sample pairs, classified
// by the later sample of the pair. Interval metrics skip pairs separated
// by more than twice the sampling period (collector outages).
//
// It runs the whole engine pass and returns one field of it; callers that
// need more than Table 2 should call All once.
func MainResults(d *trace.Dataset, threshold time.Duration) Table2 {
	o := Options{}.withDefaults()
	o.Threshold = threshold
	return allFrozen(d, o).Table2
}
