// Package lab defines the laboratory catalogue of the monitored institution
// (the paper's Table 1) and builds the simulated fleet.
//
// The hardware data — CPU model and frequency, installed RAM, disk size and
// the NBench INT/FP performance indexes — are taken verbatim from Table 1.
// Each classroom has 16 machines except L09, which has 9, for a total of
// 169 machines.
package lab

import (
	"fmt"
	"time"

	"winlab/internal/machine"
	"winlab/internal/rng"
	"winlab/internal/smart"
)

// Spec describes one laboratory: its name, machine count and the hardware
// common to all of its machines.
type Spec struct {
	Name      string
	Machines  int
	CPUModel  string
	CPUGHz    float64
	RAMMB     int
	DiskGB    float64
	IntIndex  float64
	FPIndex   float64
	BaseImgGB float64 // installed OS + class software image
}

// PerfIndex returns the 50/50 INT/FP combined index for the lab's
// machines (machine.PerfIndex).
func (s Spec) PerfIndex() float64 { return machine.PerfIndex(s.IntIndex, s.FPIndex) }

// PaperCatalog returns the 11 laboratories of the paper's Table 1.
//
// BaseImgGB is not in the paper; it is chosen so the fleet-average used
// disk space lands at the paper's 13.6 GB (Table 2) while respecting each
// disk's capacity (the 14.5 GB disks obviously cannot hold 13.6 GB of image
// plus headroom).
func PaperCatalog() []Spec {
	return []Spec{
		{Name: "L01", Machines: 16, CPUModel: "Intel Pentium 4", CPUGHz: 2.4, RAMMB: 512, DiskGB: 74.5, IntIndex: 30.5, FPIndex: 33.1, BaseImgGB: 20.0},
		{Name: "L02", Machines: 16, CPUModel: "Intel Pentium 4", CPUGHz: 2.4, RAMMB: 512, DiskGB: 74.5, IntIndex: 30.5, FPIndex: 33.1, BaseImgGB: 20.0},
		{Name: "L03", Machines: 16, CPUModel: "Intel Pentium 4", CPUGHz: 2.6, RAMMB: 512, DiskGB: 55.8, IntIndex: 39.3, FPIndex: 36.7, BaseImgGB: 16.0},
		{Name: "L04", Machines: 16, CPUModel: "Intel Pentium 4", CPUGHz: 2.4, RAMMB: 512, DiskGB: 59.5, IntIndex: 30.6, FPIndex: 33.2, BaseImgGB: 17.0},
		{Name: "L05", Machines: 16, CPUModel: "Intel Pentium III", CPUGHz: 1.1, RAMMB: 512, DiskGB: 14.5, IntIndex: 23.2, FPIndex: 19.9, BaseImgGB: 9.0},
		{Name: "L06", Machines: 16, CPUModel: "Intel Pentium 4", CPUGHz: 2.6, RAMMB: 256, DiskGB: 55.9, IntIndex: 39.2, FPIndex: 36.7, BaseImgGB: 16.0},
		{Name: "L07", Machines: 16, CPUModel: "Intel Pentium 4", CPUGHz: 1.5, RAMMB: 256, DiskGB: 37.3, IntIndex: 23.5, FPIndex: 22.1, BaseImgGB: 13.0},
		{Name: "L08", Machines: 16, CPUModel: "Intel Pentium III", CPUGHz: 1.1, RAMMB: 256, DiskGB: 18.6, IntIndex: 22.3, FPIndex: 18.6, BaseImgGB: 10.0},
		{Name: "L09", Machines: 9, CPUModel: "Intel Pentium III", CPUGHz: 0.65, RAMMB: 128, DiskGB: 14.5, IntIndex: 13.7, FPIndex: 12.1, BaseImgGB: 9.0},
		{Name: "L10", Machines: 16, CPUModel: "Intel Pentium III", CPUGHz: 0.65, RAMMB: 128, DiskGB: 14.5, IntIndex: 13.7, FPIndex: 12.2, BaseImgGB: 9.0},
		{Name: "L11", Machines: 16, CPUModel: "Intel Pentium III", CPUGHz: 0.65, RAMMB: 128, DiskGB: 14.5, IntIndex: 13.7, FPIndex: 12.2, BaseImgGB: 9.0},
	}
}

// Aggregates summarises the fleet-wide hardware totals the paper quotes in
// §4.1 ("56.62 GB of memory, 6.66 TB of disk and more than 98.6 GFlops").
type Aggregates struct {
	Machines    int
	TotalRAMGB  float64
	AvgRAMMB    float64
	TotalDiskTB float64
	AvgDiskGB   float64
	AvgInt      float64
	AvgFP       float64
	TotalGFlops float64
}

// gflopsPerFPIndex converts an NBench FP index unit into GFlops. The
// constant is calibrated so the paper's fleet sums to ≈98.6 GFlops; the
// paper does not state its own conversion.
const gflopsPerFPIndex = 98.6 / 4233.7 * 1000 // MFlops per FP-index unit

// Aggregate computes fleet-wide totals over the catalogue.
func Aggregate(specs []Spec) Aggregates {
	var a Aggregates
	var sumInt, sumFP, sumMFlops float64
	for _, s := range specs {
		n := float64(s.Machines)
		a.Machines += s.Machines
		a.TotalRAMGB += n * float64(s.RAMMB) / 1024
		a.TotalDiskTB += n * s.DiskGB / 1024
		sumInt += n * s.IntIndex
		sumFP += n * s.FPIndex
		sumMFlops += n * s.FPIndex * gflopsPerFPIndex
	}
	n := float64(a.Machines)
	a.AvgRAMMB = a.TotalRAMGB * 1024 / n
	a.AvgDiskGB = a.TotalDiskTB * 1024 / n
	a.AvgInt = sumInt / n
	a.AvgFP = sumFP / n
	a.TotalGFlops = sumMFlops / 1000
	return a
}

// Fleet is the set of simulated machines, grouped by laboratory.
type Fleet struct {
	Specs    []Spec
	Machines []*machine.Machine
	ByLab    map[string][]*machine.Machine
	byID     map[string]*machine.Machine

	// overrides maps machine ID → hardware spec for machines whose
	// hardware differs from their lab's catalogue entry (scenario
	// hardware refresh: a replacement joins with newer RAM/disk/NBench
	// indexes under a new ID). See Add.
	overrides map[string]Spec
}

// DiskLife configures the pre-experiment SMART seeding of the fleet's
// disks. The paper's machines were under 3 years old and had a lifetime
// average of 6.46 h of uptime per power cycle (σ 4.78 h).
type DiskLife struct {
	MinAgeDays, MaxAgeDays float64 // uniform machine age
	CyclesPerDay           float64 // mean pre-experiment power cycles per day
	HoursPerCycleMean      float64
	HoursPerCycleSD        float64
}

// DefaultDiskLife returns seeding parameters matching §5.2.2.
func DefaultDiskLife() DiskLife {
	return DiskLife{
		MinAgeDays:        240,
		MaxAgeDays:        1000,
		CyclesPerDay:      1.35,
		HoursPerCycleMean: 5.3,
		HoursPerCycleSD:   4.6,
	}
}

// Build creates the fleet from the catalogue. All machines start powered
// off; SMART counters are seeded with a synthetic pre-experiment life drawn
// from life using the "disklife" stream of seed.
func Build(specs []Spec, seed int64, life DiskLife) *Fleet {
	src := rng.Derive(seed, "disklife")
	f := &Fleet{
		Specs: specs,
		ByLab: make(map[string][]*machine.Machine),
		byID:  make(map[string]*machine.Machine),
	}
	idx := 0
	for _, s := range specs {
		for i := 0; i < s.Machines; i++ {
			idx++
			id := fmt.Sprintf("%s-M%02d", s.Name, i+1)
			disk := smart.NewDisk(fmt.Sprintf("WD-%s%04d", s.Name, idx), s.DiskGB)
			ageDays := src.Uniform(life.MinAgeDays, life.MaxAgeDays)
			cycles := int64(ageDays*life.CyclesPerDay*src.Uniform(0.7, 1.3)) + 1
			perCycle := src.BoundedNormal(life.HoursPerCycleMean, life.HoursPerCycleSD, 0.4, 20)
			disk.SeedLife(cycles, time.Duration(float64(cycles)*perCycle*float64(time.Hour)))
			hw := machine.Hardware{
				CPUModel: s.CPUModel,
				CPUGHz:   s.CPUGHz,
				RAMMB:    s.RAMMB,
				SwapMB:   machine.DefaultSwapMB(s.RAMMB),
				DiskGB:   s.DiskGB,
				IntIndex: s.IntIndex,
				FPIndex:  s.FPIndex,
				MACs:     []string{machine.SyntheticMAC(idx)},
				OS:       "Windows 2000 Professional SP3",
			}
			m := machine.New(id, s.Name, hw, disk)
			f.Machines = append(f.Machines, m)
			f.ByLab[s.Name] = append(f.ByLab[s.Name], m)
			f.byID[id] = m
		}
	}
	return f
}

// BuildPaperFleet builds the 169-machine fleet of the paper.
func BuildPaperFleet(seed int64) *Fleet {
	return Build(PaperCatalog(), seed, DefaultDiskLife())
}

// Extra is one machine outside the lab catalogue's uniform rows: a
// hardware-refresh replacement or a server added to an existing lab,
// with its own hardware spec. The Spec's Machines field is ignored.
type Extra struct {
	ID   string
	Lab  string
	Spec Spec
}

// Add appends one extra machine to the fleet with its own hardware
// spec, registering a per-machine override so SpecOf answers the
// machine's true hardware rather than the lab catalogue row. The disk
// is seeded as nearly new (a refresh replacement arrives with a fresh
// disk); src drives the small amount of seeding randomness and should
// be a dedicated stream so catalogue machines' draws are untouched.
func (f *Fleet) Add(e Extra, src *rng.Source) *machine.Machine {
	if f.byID[e.ID] != nil {
		panic("lab: duplicate machine ID " + e.ID)
	}
	s := e.Spec
	s.Name = e.Lab
	s.Machines = 1
	idx := len(f.Machines) + 1
	disk := smart.NewDisk(fmt.Sprintf("WD-%s%04d", e.Lab, idx), s.DiskGB)
	// A handful of burn-in cycles, not a years-old life.
	cycles := int64(src.Uniform(3, 20))
	perCycle := src.BoundedNormal(2, 1, 0.4, 8)
	disk.SeedLife(cycles, time.Duration(float64(cycles)*perCycle*float64(time.Hour)))
	hw := machine.Hardware{
		CPUModel: s.CPUModel,
		CPUGHz:   s.CPUGHz,
		RAMMB:    s.RAMMB,
		SwapMB:   machine.DefaultSwapMB(s.RAMMB),
		DiskGB:   s.DiskGB,
		IntIndex: s.IntIndex,
		FPIndex:  s.FPIndex,
		MACs:     []string{machine.SyntheticMAC(idx)},
		OS:       "Windows 2000 Professional SP3",
	}
	m := machine.New(e.ID, e.Lab, hw, disk)
	f.Machines = append(f.Machines, m)
	f.ByLab[e.Lab] = append(f.ByLab[e.Lab], m)
	f.byID[e.ID] = m
	if f.overrides == nil {
		f.overrides = make(map[string]Spec)
	}
	f.overrides[e.ID] = s
	return m
}

// Get returns the machine with the given ID, or nil.
func (f *Fleet) Get(id string) *machine.Machine { return f.byID[id] }

// Size returns the number of machines in the fleet.
func (f *Fleet) Size() int { return len(f.Machines) }

// SpecOf returns a machine's hardware spec: its per-machine override
// when it has one (refresh replacements, added servers), otherwise the
// catalogue row of its lab.
func (f *Fleet) SpecOf(m *machine.Machine) Spec {
	if s, ok := f.overrides[m.ID]; ok {
		return s
	}
	for _, s := range f.Specs {
		if s.Name == m.Lab {
			return s
		}
	}
	panic("lab: machine " + m.ID + " belongs to unknown lab " + m.Lab)
}
