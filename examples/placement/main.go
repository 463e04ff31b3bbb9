// Placement: predictor-guided harvesting with an honest train/test split.
// Week one of a three-week trace trains a machine-survival predictor; the
// remaining two weeks are harvested twice — once over every machine, once
// restricted to the predicted-stable half — and the eviction/yield
// trade-off is reported. This is the "survival techniques" theme of the
// paper's conclusion turned into a scheduler policy.
//
//	go run ./examples/placement
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"winlab/internal/experiment"
	"winlab/internal/harvest"
	"winlab/internal/predictor"
	"winlab/internal/report"
	"winlab/internal/trace"
)

func main() {
	cfg := experiment.Default(11)
	cfg.Days = 21
	fmt.Fprintln(os.Stderr, "simulating 21 days of monitoring...")
	res, err := experiment.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Honest split: fit on week 1, act on weeks 2–3.
	train, test := trace.SplitAt(res.Dataset, cfg.Start.AddDate(0, 0, 7))
	model := predictor.Fit(train, time.Hour)

	// Out-of-sample predictor quality.
	ev := model.Evaluate(test)
	fmt.Printf("survival predictor (1 h horizon, out of sample): base rate %.3f, "+
		"Brier %.4f vs %.4f constant → skill %.1f%%\n\n",
		ev.BaseRate, ev.Brier, ev.BaseBrier, 100*ev.Skill())

	stable := model.StableSet(0.5, 20)
	fmt.Printf("predicted-stable set: %d of %d machines\n\n", len(stable), len(res.Dataset.Machines))

	run := func(name string, filter func(string) bool) harvest.QueueResult {
		r, err := harvest.RunQueue(test, harvest.QueueConfig{
			Tasks: 1_000_000, TaskWork: 25, Checkpoint: 15 * time.Minute,
			Policy: harvest.FreeOnly, MachineFilter: filter,
		})
		if err != nil {
			log.Fatal(err)
		}
		_ = name
		return r
	}
	all := run("all", nil)
	top := run("stable", func(id string) bool { return stable[id] })

	t := &report.Table{
		Title:   "Harvesting weeks 2-3 (25 index-hour tasks, 15 m checkpoints)",
		Headers: []string{"Policy", "Tasks", "Evictions", "Lost idx-h", "Evictions per 1000 tasks"},
	}
	row := func(name string, r harvest.QueueResult) {
		per1000 := 0.0
		if r.CompletedTasks > 0 {
			per1000 = 1000 * float64(r.Evictions) / float64(r.CompletedTasks)
		}
		t.AddRow(name,
			fmt.Sprintf("%d", r.CompletedTasks),
			fmt.Sprintf("%d", r.Evictions),
			fmt.Sprintf("%.0f", r.LostWork),
			fmt.Sprintf("%.2f", per1000))
	}
	row("every machine", all)
	row("predicted-stable half", top)
	t.Render(os.Stdout)

	fmt.Println("\nplacement on predicted-stable machines trades raw throughput for a")
	fmt.Println("lower eviction rate per task; most volatility in this fleet strikes")
	fmt.Println("every machine alike (the 4 am sweep), which caps what placement alone")
	fmt.Println("can save — checkpointing (see examples/harvest) remains the big lever.")
}
