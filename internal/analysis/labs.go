package analysis

// LabUsage is one laboratory's usage summary: how often its machines were
// up, how often occupied, and its resource idleness. The paper aggregates
// over the whole institution; the per-lab view exposes the structure the
// aggregate hides (students prefer the fast Pentium 4 rooms; the 128 MB
// rooms run hot on memory).
type LabUsage struct {
	Lab                  string
	Machines             int
	UptimePct            float64 // share of the lab's probe attempts answered
	OccupiedPct          float64 // share of attempts with an occupied session
	CPUIdlePct           float64
	RAMLoadPct           float64
	FreeRAMMBPerMachine  float64 // average unused memory per powered machine
	FreeDiskGBPerMachine float64
}
