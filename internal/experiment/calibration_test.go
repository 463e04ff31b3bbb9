package experiment

import (
	"testing"
	"time"

	"winlab/internal/analysis"
)

// TestCalibrationHeadline runs the full 77-day experiment and checks the
// headline aggregates land in bands around the paper's reported values.
// The bands are deliberately loose: the trace is stochastic and we match
// shape, not decimals. Run with -v to see the full paper-vs-measured list.
func TestCalibrationHeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("77-day simulation; skipped in -short mode")
	}
	res, err := Run(Default(1))
	if err != nil {
		t.Fatal(err)
	}
	d := res.Dataset

	a := analysis.All(d, analysis.Options{})
	t2, av, sess, pc, eq, age := a.Table2, a.Availability, a.Sessions, a.PowerCycles, a.Equivalence, a.SessionAge

	attempts := d.Attempts()
	t.Logf("iterations=%d (paper 6883), attempts=%d, samples=%d (paper 583653)",
		len(d.Iterations), attempts, len(d.Samples))
	t.Logf("raw login samples=%d (paper 277513), reclassified=%d (paper 87830)",
		t2.Reclass.RawLoginSamples, t2.Reclass.Reclassified)
	t.Logf("uptime%%: no=%.1f with=%.1f both=%.1f (paper 33.9/16.3/50.2)",
		t2.NoLogin.UptimePct, t2.WithLogin.UptimePct, t2.Both.UptimePct)
	t.Logf("cpu idle%%: no=%.2f with=%.2f both=%.2f (paper 99.7/94.2/97.9)",
		t2.NoLogin.CPUIdlePct, t2.WithLogin.CPUIdlePct, t2.Both.CPUIdlePct)
	t.Logf("ram%%: no=%.1f with=%.1f both=%.1f (paper 54.8/67.6/58.9)",
		t2.NoLogin.RAMLoadPct, t2.WithLogin.RAMLoadPct, t2.Both.RAMLoadPct)
	t.Logf("swap%%: no=%.1f with=%.1f both=%.1f (paper 25.7/32.8/28.0)",
		t2.NoLogin.SwapLoadPct, t2.WithLogin.SwapLoadPct, t2.Both.SwapLoadPct)
	t.Logf("disk GB: no=%.1f with=%.1f both=%.1f (paper 13.6)",
		t2.NoLogin.DiskUsedGB, t2.WithLogin.DiskUsedGB, t2.Both.DiskUsedGB)
	t.Logf("sent bps: no=%.0f with=%.0f both=%.0f (paper 255/2602/1072)",
		t2.NoLogin.SentBps, t2.WithLogin.SentBps, t2.Both.SentBps)
	t.Logf("recv bps: no=%.0f with=%.0f both=%.0f (paper 359/8662/3058)",
		t2.NoLogin.RecvBps, t2.WithLogin.RecvBps, t2.Both.RecvBps)
	t.Logf("fig3: avg powered=%.1f (paper 84.87) user-free=%.1f (paper 57.29)",
		av.AvgPoweredOn, av.AvgUserFree)
	ups := a.Uptimes
	t.Logf("fig4: machines >0.5=%d (paper ~30) >0.8=%d (<10) >0.9=%d (0)",
		analysis.CountAbove(ups, 0.5), analysis.CountAbove(ups, 0.8), analysis.CountAbove(ups, 0.9))
	t.Logf("sessions: n=%d (paper 10688) mean=%s (15h55m) sd=%s (26.65h) short=%.1f%%/%.1f%% (98.7/87.93)",
		sess.Count, sess.Mean.Round(time.Minute), sess.StdDev.Round(time.Minute),
		100*sess.ShortFraction, 100*sess.ShortUptimeFraction)
	t.Logf("smart: cycles=%d (13871) perMach=%.1f±%.1f (82.57±37.05) perDay=%.2f (1.07) undetected=%.0f%% (~30%%)",
		pc.TotalCycles, pc.AvgPerMachine, pc.SDPerMachine, pc.CyclesPerDay, 100*pc.UndetectedRatio)
	t.Logf("smart: uptime/cycle=%s (13h54m) lifetime=%s±%s (6.46h±4.78)",
		pc.UptimePerCycle.Round(time.Minute), pc.LifetimePerCycle.Round(time.Minute),
		pc.LifetimePerCycleSD.Round(time.Minute))
	t.Logf("equivalence: occ=%.3f free=%.3f total=%.3f (paper 0.26/0.25/0.51)",
		eq.OccupiedRatio, eq.FreeRatio, eq.TotalRatio)
	t.Logf("fig2: first bucket >=99%% idle at hour %d (paper 10)", age.FirstBucketAtOrAbove(99))
	for _, b := range age.Buckets {
		t.Logf("  fig2 hour %2d: n=%6d idle=%.2f%%", b.Hour, b.Samples, b.CPUIdlePct)
	}
	t.Logf("model: boots=%d logins=%d forgets=%d crashes=%d phantoms=%d",
		res.Model.Boots, res.Model.Logins, res.Model.Forgets, res.Model.Crashes, res.Model.PhantomCycles)

	band := func(name string, got, lo, hi float64) {
		if got < lo || got > hi {
			t.Errorf("%s = %.3f outside calibration band [%.3f, %.3f]", name, got, lo, hi)
		}
	}
	// Figure 5 shape: the Tuesday-afternoon CPU-hog class must dent the
	// weekly idleness curve (paper: below 91%), and idleness while the labs
	// are closed must exceed idleness while they are open (§5.3).
	weekly := a.Weekly
	slot, dip := weekly.MinCPUIdleSlot()
	if wd := analysis.SlotWeekday(slot); wd != time.Tuesday {
		t.Errorf("weekly idleness minimum on %v, want Tuesday (CPU-hog class)", wd)
	}
	if dip > 93 {
		t.Errorf("Tuesday dip only reaches %.1f%%, want <93%% (paper: <91%%)", dip)
	}
	cal := res.Model.Calendar()
	closedIdle := weekly.IdlenessWhen(func(at time.Time) bool { return !cal.IsOpen(at) })
	openIdle := weekly.IdlenessWhen(func(at time.Time) bool { return cal.IsOpen(at) })
	t.Logf("idleness closed=%.2f%% open=%.2f%% (5.3: nights/weekends near 100)",
		closedIdle.Mean(), openIdle.Mean())
	if closedIdle.Mean() <= openIdle.Mean() {
		t.Errorf("closed-hours idleness %.2f not above open-hours %.2f",
			closedIdle.Mean(), openIdle.Mean())
	}
	if closedIdle.Mean() < 99 {
		t.Errorf("closed-hours idleness %.2f, want ≈99.5+", closedIdle.Mean())
	}

	band("uptime both %", t2.Both.UptimePct, 42, 58)
	band("cpu idle no-login %", t2.NoLogin.CPUIdlePct, 99.3, 99.95)
	band("cpu idle with-login %", t2.WithLogin.CPUIdlePct, 92, 96.5)
	band("cpu idle both %", t2.Both.CPUIdlePct, 96.5, 99.2)
	band("ram no-login %", t2.NoLogin.RAMLoadPct, 48, 62)
	band("ram with-login %", t2.WithLogin.RAMLoadPct, 60, 76)
	band("disk used GB", t2.Both.DiskUsedGB, 12, 15.5)
	band("equivalence total", eq.TotalRatio, 0.40, 0.62)
	band("lifetime h/cycle", pc.LifetimePerCycle.Hours(), 5.2, 7.8)
	band("undetected cycle ratio", pc.UndetectedRatio, 0.1, 0.6)
	if got := age.FirstBucketAtOrAbove(99); got < 4 || got > 14 {
		t.Errorf("fig2 threshold bucket = %d, want in [4, 14]", got)
	}
}
