package experiment

import (
	"time"

	"winlab/internal/stats"
)

// GroundTruth summarises what *actually* happened in the simulated fleet,
// straight from the machine logs — information the paper's 15-minute
// sampling methodology could only approximate. Comparing it against the
// trace-derived statistics quantifies the methodology's blind spots
// (the §5.2.2 "power cycles invisible to sampling" discussion, and the
// sampling-period ablation in bench_test.go).
type GroundTruth struct {
	PowerSessions     int           // true boot→shutdown count
	MeanSessionLength time.Duration // true mean machine-session length
	SDSessionLength   time.Duration
	ShortSessions     int // sessions shorter than one sampling period

	InteractiveSessions int
	ForgottenSessions   int
	MeanInteractive     time.Duration
}

// Truth extracts the ground truth from a finished experiment.
func Truth(res *Result) GroundTruth {
	var gt GroundTruth
	var lengths stats.Running
	var inter stats.Sum
	period := res.Config.Period
	for _, m := range res.Fleet.Machines {
		for _, p := range m.PowerLog {
			gt.PowerSessions++
			lengths.Add(p.Duration().Hours())
			if p.Duration() < period {
				gt.ShortSessions++
			}
		}
		for _, s := range m.SessionLog {
			gt.InteractiveSessions++
			inter.Add(s.End.Sub(s.Start).Hours())
			if s.Forgotten {
				gt.ForgottenSessions++
			}
		}
	}
	gt.MeanSessionLength = time.Duration(lengths.Mean() * float64(time.Hour))
	gt.SDSessionLength = time.Duration(lengths.StdDev() * float64(time.Hour))
	gt.MeanInteractive = time.Duration(inter.Mean() * float64(time.Hour))
	return gt
}
