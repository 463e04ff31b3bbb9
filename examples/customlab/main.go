// Customlab: monitor your own institution instead of the paper's. This
// example defines a different laboratory catalogue (a small modern-ish
// fleet), tweaks the behaviour model (no Saturday opening, heavier
// interactive CPU), runs a two-week experiment and compares its headline
// numbers against the paper fleet's.
//
//	go run ./examples/customlab
package main

import (
	"fmt"
	"log"
	"os"

	"winlab/internal/analysis"
	"winlab/internal/experiment"
	"winlab/internal/lab"
	"winlab/internal/report"
)

func main() {
	custom := []lab.Spec{
		{Name: "CS1", Machines: 24, CPUModel: "Intel Pentium 4", CPUGHz: 3.0,
			RAMMB: 512, DiskGB: 120, IntIndex: 45, FPIndex: 42, BaseImgGB: 28},
		{Name: "CS2", Machines: 24, CPUModel: "Intel Pentium 4", CPUGHz: 3.0,
			RAMMB: 512, DiskGB: 120, IntIndex: 45, FPIndex: 42, BaseImgGB: 28},
		{Name: "EE1", Machines: 12, CPUModel: "Intel Pentium III", CPUGHz: 1.0,
			RAMMB: 256, DiskGB: 40, IntIndex: 20, FPIndex: 17, BaseImgGB: 12},
	}

	cfg := experiment.Default(99)
	cfg.Days = 14
	cfg.Labs = custom
	// Behaviour tweaks: these labs close on Saturdays and host CPU-heavier
	// coursework (e.g. simulations) in CS1.
	cfg.Behavior.SaturdayFactor = 0
	cfg.Behavior.SaturdayClassMeanPerLab = 0
	cfg.Behavior.InteractiveCPUMean = 0.11
	cfg.Behavior.CPUHogLabs = []string{"CS1"}
	// The OS/app memory model is keyed by RAM size; the custom fleet uses
	// the same 512/256 MB classes so the defaults apply unchanged.

	res, err := experiment.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	report.Table1(custom).Render(os.Stdout)
	fmt.Println(report.Table1Aggregates(custom))

	a := analysis.All(res.Dataset, analysis.Options{})
	report.Table2(a.Table2).Render(os.Stdout)

	eq := a.Equivalence
	fmt.Printf("\ncustom fleet equivalence ratio: %.2f (occupied %.2f + free %.2f)\n",
		eq.TotalRatio, eq.OccupiedRatio, eq.FreeRatio)
	fmt.Println("\nCompare with the paper fleet: go run ./examples/quickstart")
}
