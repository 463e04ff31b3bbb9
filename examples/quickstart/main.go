// Quickstart: run a one-week scaled-down monitoring experiment and print
// the paper's main-results table (Table 2) plus the headline availability
// numbers.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	"winlab/internal/analysis"
	"winlab/internal/experiment"
	"winlab/internal/report"
)

func main() {
	// Start from the paper's configuration and shrink it: 7 days instead
	// of 77. Everything else — the 169-machine fleet, the 15-minute
	// probing, the behaviour model — stays as in the paper.
	cfg := experiment.Default(42)
	cfg.Days = 7

	res, err := experiment.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collected %d samples in %d iterations over %d machines\n\n",
		res.Collector.Samples, res.Collector.Iterations, len(res.Dataset.Machines))

	// Table 2: resource usage split by interactive-session presence.
	a := analysis.All(res.Dataset, analysis.Options{})
	report.Table2(a.Table2).Render(os.Stdout)

	// The two headline findings of the paper:
	av, eq := a.Availability, a.Equivalence
	fmt.Printf("\nOn average %.1f of %d machines were powered on; %.1f of those were user-free.\n",
		av.AvgPoweredOn, len(res.Dataset.Machines), av.AvgUserFree)
	fmt.Printf("Cluster equivalence ratio: %.2f (the paper's \"2:1 rule\": N non-dedicated\n"+
		"machines are worth roughly N/2 dedicated ones).\n", eq.TotalRatio)
}
