package analysis

// CapacityReport quantifies the paper's concluding claims about harvestable
// memory and disk: "memory idleness is also noticeable especially in
// machines fitted with 512 MB", "free space storage among monitored
// machines is impressive" — the raw material for network-RAM schemes and
// distributed backup / local data grids (§6).
type CapacityReport struct {
	// Memory.
	AvgFreeRAMMBPerMachine float64         // over powered machines
	FleetFreeRAMGB         float64         // average simultaneously-free memory fleet-wide
	FreeRAMByClass         map[int]float64 // RAM size (MB) → avg free MB per machine

	// Disk.
	AvgFreeDiskGBPerMachine float64
	FleetFreeDiskTB         float64 // average simultaneously-free disk fleet-wide

	// Availability context: capacity is only harvestable while powered.
	AvgPoweredMachines float64
}
