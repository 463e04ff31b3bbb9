package core

import (
	"fmt"
	"io"
	"math"

	"winlab/internal/report"
)

// paperRef holds one published value and where it comes from.
type paperRef struct {
	name  string
	paper float64
	get   func(*Report) float64
	// tol is the relative deviation (fraction) considered "matching shape";
	// used only to annotate the table, never to fail anything.
	tol float64
}

// paperReferences is the paper's published headline values (Table 2,
// Figures 3/4/6, §5.2.2). They appear here only for side-by-side
// comparison; nothing in the simulator or analysis reads them.
var paperReferences = []paperRef{
	{"Avg uptime, both (%)", 50.2, func(r *Report) float64 { return r.Table2.Both.UptimePct }, 0.10},
	{"Avg uptime, no login (%)", 33.9, func(r *Report) float64 { return r.Table2.NoLogin.UptimePct }, 0.15},
	{"Avg uptime, with login (%)", 16.3, func(r *Report) float64 { return r.Table2.WithLogin.UptimePct }, 0.15},
	{"CPU idle, both (%)", 97.9, func(r *Report) float64 { return r.Table2.Both.CPUIdlePct }, 0.01},
	{"CPU idle, no login (%)", 99.7, func(r *Report) float64 { return r.Table2.NoLogin.CPUIdlePct }, 0.01},
	{"CPU idle, with login (%)", 94.2, func(r *Report) float64 { return r.Table2.WithLogin.CPUIdlePct }, 0.02},
	{"RAM load, no login (%)", 54.8, func(r *Report) float64 { return r.Table2.NoLogin.RAMLoadPct }, 0.10},
	{"RAM load, with login (%)", 67.6, func(r *Report) float64 { return r.Table2.WithLogin.RAMLoadPct }, 0.10},
	{"Swap load, both (%)", 28.0, func(r *Report) float64 { return r.Table2.Both.SwapLoadPct }, 0.15},
	{"Disk used, both (GB)", 13.6, func(r *Report) float64 { return r.Table2.Both.DiskUsedGB }, 0.10},
	{"Sent, with login (bps)", 2601.8, func(r *Report) float64 { return r.Table2.WithLogin.SentBps }, 0.25},
	{"Recv, with login (bps)", 8662.1, func(r *Report) float64 { return r.Table2.WithLogin.RecvBps }, 0.25},
	{"Machines powered on (avg)", 84.87, func(r *Report) float64 { return r.Availability.AvgPoweredOn }, 0.10},
	{"Machines user-free (avg)", 57.29, func(r *Report) float64 { return r.Availability.AvgUserFree }, 0.15},
	{"Forgotten threshold (h)", 10, func(r *Report) float64 { return float64(r.SessionAge.FirstBucketAtOrAbove(99)) }, 0.40},
	{"Detected sessions / day / machine", 10688.0 / 77 / 169, func(r *Report) float64 {
		days := 0.0
		if pts := r.Availability.Points; len(pts) > 1 {
			days = pts[len(pts)-1].Time.Sub(pts[0].Time).Hours() / 24
		}
		if days <= 0 || len(r.Uptimes) == 0 {
			return 0
		}
		return float64(r.Sessions.Count) / days / float64(len(r.Uptimes))
	}, 0.35},
	{"Cycles / machine-day", 1.07, func(r *Report) float64 { return r.PowerCycles.CyclesPerDay }, 0.25},
	{"Cycles invisible to sampling (%)", 30, func(r *Report) float64 { return 100 * r.PowerCycles.UndetectedRatio }, 0.40},
	{"Lifetime uptime/cycle (h)", 6.46, func(r *Report) float64 { return r.PowerCycles.LifetimePerCycle.Hours() }, 0.20},
	{"Equivalence, occupied", 0.26, func(r *Report) float64 { return r.Equivalence.OccupiedRatio }, 0.20},
	{"Equivalence, free", 0.25, func(r *Report) float64 { return r.Equivalence.FreeRatio }, 0.20},
	{"Equivalence, total", 0.51, func(r *Report) float64 { return r.Equivalence.TotalRatio }, 0.15},
}

// ComparePaper renders the side-by-side paper-vs-measured table. The
// "within" column annotates whether the measured value falls inside the
// stated shape tolerance — informational, not a pass/fail gate (the
// substrate is a simulator; see EXPERIMENTS.md).
func (r *Report) ComparePaper(w io.Writer) {
	t := &report.Table{
		Title:   "Paper vs measured (shape comparison; tolerances are informational)",
		Headers: []string{"Metric", "Paper", "Measured", "Dev %", "Within"},
	}
	for _, ref := range paperReferences {
		got := ref.get(r)
		dev := math.Inf(1)
		if ref.paper != 0 {
			dev = (got - ref.paper) / ref.paper
		}
		within := "yes"
		if math.Abs(dev) > ref.tol {
			within = "NO"
		}
		t.AddRow(ref.name,
			fmt.Sprintf("%.2f", ref.paper),
			fmt.Sprintf("%.2f", got),
			fmt.Sprintf("%+.1f", 100*dev),
			within)
	}
	t.Render(w)
}
