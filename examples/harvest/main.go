// Harvest: replay a collected monitoring trace through the desktop-grid
// harvesting simulator and quantify (a) how much of the idleness-derived
// cluster-equivalence upper bound survives machine volatility, and (b) how
// much checkpointing frequency matters — the "survival techniques" the
// paper's conclusion calls for.
//
//	go run ./examples/harvest
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"winlab/internal/analysis"
	"winlab/internal/core"
	"winlab/internal/harvest"
	"winlab/internal/report"
)

func main() {
	cfg := core.DefaultConfig(7)
	cfg.Days = 21 // three weeks is plenty for stable yield numbers

	fmt.Fprintln(os.Stderr, "simulating 21 days of monitoring...")
	res, err := core.RunExperiment(cfg)
	if err != nil {
		log.Fatal(err)
	}
	d := res.Dataset

	upper := analysis.All(d, analysis.Options{}).Equivalence
	fmt.Printf("idleness-derived equivalence (upper bound): %.3f\n\n", upper.TotalRatio)

	// Tasks of one NBench-index-hour each (roughly 2.4 minutes on a fast
	// P4 of the fleet), harvested from user-free machines, at several
	// checkpoint intervals.
	intervals := []time.Duration{
		0, // no checkpointing: evictions restart tasks
		15 * time.Minute,
		time.Hour,
		4 * time.Hour,
	}
	results, err := harvest.SweepCheckpoint(d, 25, harvest.FreeOnly, intervals)
	if err != nil {
		log.Fatal(err)
	}
	t := &report.Table{
		Title:   "Harvest yield vs checkpoint interval (free machines only, 25 index-hour tasks)",
		Headers: []string{"Checkpoint", "Tasks done", "Harvested idx-h", "Lost idx-h", "Evictions", "Equivalence"},
	}
	for _, r := range results {
		ck := "none"
		if r.Config.Checkpoint > 0 {
			ck = r.Config.Checkpoint.String()
		}
		t.AddRow(ck,
			fmt.Sprintf("%d", r.CompletedTasks),
			fmt.Sprintf("%.0f", r.HarvestedWork),
			fmt.Sprintf("%.0f", r.LostWork),
			fmt.Sprintf("%d", r.Evictions),
			fmt.Sprintf("%.3f", r.Equivalence))
	}
	t.Render(os.Stdout)

	// Harvesting occupied machines too (they are still ~94% idle).
	all, err := harvest.Run(d, harvest.Config{TaskWork: 25, Checkpoint: 15 * time.Minute, Policy: harvest.All})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nharvesting occupied machines too: equivalence %.3f (vs %.3f free-only)\n",
		all.Equivalence, results[1].Equivalence)
}
