package analysis

import (
	"winlab/internal/stats"
	"winlab/internal/trace"
)

// EquivalenceResult is the Figure 6 / §5.4 cluster-equivalence analysis:
// what fraction of an equally-sized *dedicated* cluster the harvestable
// idle CPU of the non-dedicated fleet is worth.
//
// Following Arpaci et al. as applied by the paper, a machine with i% CPU
// idleness counts as i% of a dedicated machine; machines are weighted by
// their NBench combined index (50% INT + 50% FP) to handle heterogeneity;
// powered-off machines contribute nothing. "Occupied" means an open
// interactive session at sample time (raw, unreclassified — an abandoned
// but open session is still usable idleness on an occupied machine).
// Machines without NBench index metadata are skipped;
// Options.UnweightedEquivalence forces every weight to 1 (the ablation).
//
// On traces with partial-lifetime machines (scenario fleet churn) the
// dedicated-cluster denominator is per-iteration: the comparison cluster
// at any instant is the fleet that existed at that instant. Full-lifetime
// traces keep the classic static denominator.
type EquivalenceResult struct {
	// Means over all iterations.
	OccupiedRatio float64 // the paper reports 0.26
	FreeRatio     float64 // 0.25
	TotalRatio    float64 // 0.51 → the 2:1 rule

	// Weekly distribution of the total ratio and its components.
	Weekly         stats.WeeklyProfile
	WeeklyOccupied stats.WeeklyProfile
	WeeklyFree     stats.WeeklyProfile
}

// activePerf sums the perf weights of the machines that were fleet
// members at the given iteration — the per-iteration equivalence
// denominator for traces with fleet churn.
func activePerf(machines []trace.MachineInfo, perf map[string]float64, iter int) float64 {
	var t stats.Sum
	for i := range machines {
		if machines[i].ActiveAt(iter) {
			t.Add(perf[machines[i].ID])
		}
	}
	return t.Total()
}
