package analysis

import (
	"testing"
	"time"

	"winlab/internal/trace"
)

// twoLabDataset builds a dataset with a busy fast lab and an idle slow lab.
func twoLabDataset() *trace.Dataset {
	d := &trace.Dataset{
		Start: t0, End: t0.AddDate(0, 0, 1), Period: 15 * time.Minute,
		Machines: []trace.MachineInfo{
			{ID: "F1", Lab: "FAST", RAMMB: 512, DiskGB: 74.5, IntIndex: 40, FPIndex: 40},
			{ID: "F2", Lab: "FAST", RAMMB: 512, DiskGB: 74.5, IntIndex: 40, FPIndex: 40},
			{ID: "S1", Lab: "SLOW", RAMMB: 128, DiskGB: 14.5, IntIndex: 13, FPIndex: 12},
		},
	}
	boot := t0
	for i := 1; i <= 8; i++ {
		at := t0.Add(time.Duration(i) * 15 * time.Minute)
		up := at.Sub(boot)
		// F1 always up with a user at 80% idle, 60% RAM.
		d.Samples = append(d.Samples, trace.Sample{
			Iter: i, Time: at, Machine: "F1", Lab: "FAST", BootTime: boot,
			Uptime: up, CPUIdle: time.Duration(0.8 * float64(up)),
			MemLoadPct: 60, DiskGB: 74.5, FreeDiskGB: 54.5,
			SessionUser: "u", SessionStart: boot,
		})
		// F2 always up, free, 99% idle, 40% RAM.
		d.Samples = append(d.Samples, trace.Sample{
			Iter: i, Time: at, Machine: "F2", Lab: "FAST", BootTime: boot,
			Uptime: up, CPUIdle: time.Duration(0.99 * float64(up)),
			MemLoadPct: 40, DiskGB: 74.5, FreeDiskGB: 54.5,
		})
		// S1 up only for the first four iterations, free, 75% RAM.
		if i <= 4 {
			d.Samples = append(d.Samples, trace.Sample{
				Iter: i, Time: at, Machine: "S1", Lab: "SLOW", BootTime: boot,
				Uptime: up, CPUIdle: up,
				MemLoadPct: 75, DiskGB: 14.5, FreeDiskGB: 5.5,
			})
		}
		d.Iterations = append(d.Iterations, trace.Iteration{Iter: i, Start: at, Attempted: 3})
	}
	return d
}

func TestByLab(t *testing.T) {
	us := All(twoLabDataset(), Options{}).Labs
	if len(us) != 2 {
		t.Fatalf("labs = %d", len(us))
	}
	fast, slow := us[0], us[1]
	if fast.Lab != "FAST" || slow.Lab != "SLOW" {
		t.Fatalf("order: %s, %s", fast.Lab, slow.Lab)
	}
	if fast.Machines != 2 || slow.Machines != 1 {
		t.Errorf("machine counts %d/%d", fast.Machines, slow.Machines)
	}
	if fast.UptimePct != 100 {
		t.Errorf("fast uptime = %v", fast.UptimePct)
	}
	if slow.UptimePct != 50 {
		t.Errorf("slow uptime = %v", slow.UptimePct)
	}
	if fast.OccupiedPct != 50 { // F1 of F1+F2
		t.Errorf("fast occupied = %v", fast.OccupiedPct)
	}
	if slow.OccupiedPct != 0 {
		t.Errorf("slow occupied = %v", slow.OccupiedPct)
	}
	if fast.RAMLoadPct != 50 { // mean of 60 and 40
		t.Errorf("fast ram = %v", fast.RAMLoadPct)
	}
	// Free RAM: F1 204.8 MB, F2 307.2 → mean 256.
	if fast.FreeRAMMBPerMachine != 256 {
		t.Errorf("fast free RAM = %v", fast.FreeRAMMBPerMachine)
	}
	if slow.FreeDiskGBPerMachine != 5.5 {
		t.Errorf("slow free disk = %v", slow.FreeDiskGBPerMachine)
	}
	// CPU idleness per lab from intervals.
	if fast.CPUIdlePct < 89 || fast.CPUIdlePct > 90 { // mean of 80 and 99
		t.Errorf("fast cpu idle = %v", fast.CPUIdlePct)
	}
}

func TestCapacity(t *testing.T) {
	c := All(twoLabDataset(), Options{}).Capacity
	// Per-sample free RAM: 8×204.8 + 8×307.2 + 4×32 over 20 samples = 211.2.
	if c.AvgFreeRAMMBPerMachine < 211 || c.AvgFreeRAMMBPerMachine > 212 {
		t.Errorf("avg free RAM = %v", c.AvgFreeRAMMBPerMachine)
	}
	if v := c.FreeRAMByClass[128]; v != 32 {
		t.Errorf("128MB class free = %v", v)
	}
	if v := c.FreeRAMByClass[512]; v != 256 {
		t.Errorf("512MB class free = %v", v)
	}
	// Simultaneous fleet free RAM: iterations 1–4 have all three machines
	// (544 MB), 5–8 only the fast pair (512 MB) → mean 528 MB.
	if got := c.FleetFreeRAMGB * 1024; got < 527 || got > 529 {
		t.Errorf("fleet free RAM = %v MB", got)
	}
	// Powered machines: 3,3,3,3,2,2,2,2 → 2.5.
	if c.AvgPoweredMachines != 2.5 {
		t.Errorf("avg powered = %v", c.AvgPoweredMachines)
	}
	// Fleet free disk: 4×(54.5+54.5+5.5) + 4×109 over 8 iterations = 111.75 GB.
	if got := c.FleetFreeDiskTB * 1024; got < 111.7 || got > 111.8 {
		t.Errorf("fleet free disk = %v GB", got)
	}
}

func TestUnusedMemoryPct(t *testing.T) {
	// Overall RAM load mean: (8×60 + 8×40 + 4×75) / 20 = 55, so the
	// unused-memory headline is 45%.
	got := 100 - All(twoLabDataset(), Options{}).Table2.Both.RAMLoadPct
	if got != 45 {
		t.Errorf("unused memory = %v, want 45", got)
	}
}
