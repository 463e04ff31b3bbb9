package lab

import (
	"strings"
	"testing"
	"time"
)

func TestPaperCatalogShape(t *testing.T) {
	specs := PaperCatalog()
	if len(specs) != 11 {
		t.Fatalf("labs = %d, want 11", len(specs))
	}
	total := 0
	for _, s := range specs {
		total += s.Machines
		want := 16
		if s.Name == "L09" {
			want = 9
		}
		if s.Machines != want {
			t.Errorf("%s has %d machines, want %d", s.Name, s.Machines, want)
		}
		if s.BaseImgGB >= s.DiskGB {
			t.Errorf("%s image %v ≥ disk %v", s.Name, s.BaseImgGB, s.DiskGB)
		}
	}
	if total != 169 {
		t.Errorf("fleet size = %d, want 169", total)
	}
}

func TestAggregatesMatchPaper(t *testing.T) {
	a := Aggregate(PaperCatalog())
	// §4.1: "56.62 GB of memory, 6.66 TB of disk and more than 98.6
	// GFlops"; Table 1 averages 340.8 MB / 40.3 GB / 25.5 / 24.6. The
	// paper's own rounding is loose, so we assert close bands.
	if a.Machines != 169 {
		t.Errorf("machines = %d", a.Machines)
	}
	if a.TotalRAMGB < 55 || a.TotalRAMGB > 58 {
		t.Errorf("total RAM = %.2f GB, want ≈56.6", a.TotalRAMGB)
	}
	if a.TotalDiskTB < 6.5 || a.TotalDiskTB > 6.8 {
		t.Errorf("total disk = %.2f TB, want ≈6.66", a.TotalDiskTB)
	}
	if a.AvgRAMMB < 335 || a.AvgRAMMB > 350 {
		t.Errorf("avg RAM = %.1f MB, want ≈341", a.AvgRAMMB)
	}
	if a.AvgDiskGB < 39 || a.AvgDiskGB > 42 {
		t.Errorf("avg disk = %.1f GB, want ≈40.3", a.AvgDiskGB)
	}
	if a.AvgInt < 24 || a.AvgInt > 27 {
		t.Errorf("avg INT = %.1f, want ≈25.5", a.AvgInt)
	}
	if a.AvgFP < 23.5 || a.AvgFP > 26.5 {
		t.Errorf("avg FP = %.1f, want ≈24.6", a.AvgFP)
	}
	if a.TotalGFlops < 97 || a.TotalGFlops > 100 {
		t.Errorf("total GFlops = %.1f, want ≈98.6", a.TotalGFlops)
	}
}

func TestMeanDiskImageNearPaperUsage(t *testing.T) {
	// The per-lab base images must average near Table 2's 13.6 GB.
	specs := PaperCatalog()
	var sum float64
	n := 0
	for _, s := range specs {
		sum += s.BaseImgGB * float64(s.Machines)
		n += s.Machines
	}
	avg := sum / float64(n)
	if avg < 13.2 || avg > 14.1 {
		t.Errorf("avg base image = %.2f GB, want ≈13.6", avg)
	}
}

func TestBuildFleet(t *testing.T) {
	f := BuildPaperFleet(1)
	if f.Size() != 169 {
		t.Fatalf("fleet size = %d", f.Size())
	}
	if len(f.ByLab) != 11 || len(f.ByLab["L09"]) != 9 {
		t.Errorf("lab grouping wrong")
	}
	m := f.Get("L03-M05")
	if m == nil {
		t.Fatal("L03-M05 missing")
	}
	if m.HW.CPUGHz != 2.6 || m.HW.RAMMB != 512 || m.HW.IntIndex != 39.3 {
		t.Errorf("L03 hardware wrong: %+v", m.HW)
	}
	if f.Get("L99-M01") != nil {
		t.Error("unknown machine resolved")
	}
	if got := f.SpecOf(m).Name; got != "L03" {
		t.Errorf("SpecOf = %s", got)
	}
}

func TestBuildDeterministic(t *testing.T) {
	a := BuildPaperFleet(7)
	b := BuildPaperFleet(7)
	at := time.Unix(0, 0)
	for i := range a.Machines {
		da, db := a.Machines[i].Disk, b.Machines[i].Disk
		if da.PowerCycleCount(at) != db.PowerCycleCount(at) ||
			da.PowerOnHours(at) != db.PowerOnHours(at) {
			t.Fatalf("machine %d disk life differs across identical seeds", i)
		}
	}
	c := BuildPaperFleet(8)
	diff := false
	for i := range a.Machines {
		if a.Machines[i].Disk.PowerCycleCount(at) != c.Machines[i].Disk.PowerCycleCount(at) {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("different seeds produced identical disk lives")
	}
}

func TestDiskLifeSeeding(t *testing.T) {
	f := BuildPaperFleet(3)
	at := time.Unix(0, 0)
	var sumPerCycle float64
	for _, m := range f.Machines {
		c := m.Disk.PowerCycleCount(at)
		h := m.Disk.PowerOnHours(at)
		if c <= 0 || h < 0 {
			t.Fatalf("%s: cycles=%d hours=%d", m.ID, c, h)
		}
		sumPerCycle += float64(h) / float64(c)
	}
	avg := sumPerCycle / float64(f.Size())
	// §5.2.2 reports a lifetime average of 6.46 h/cycle; the seed targets
	// slightly below so the experiment's longer cycles blend to ≈6.5.
	if avg < 4 || avg > 8 {
		t.Errorf("seeded lifetime uptime/cycle = %.2f h, want ≈5–7", avg)
	}
}

func TestUniqueIdentifiers(t *testing.T) {
	f := BuildPaperFleet(1)
	ids := map[string]bool{}
	serials := map[string]bool{}
	macs := map[string]bool{}
	for _, m := range f.Machines {
		if ids[m.ID] {
			t.Fatalf("duplicate machine ID %s", m.ID)
		}
		ids[m.ID] = true
		if serials[m.Disk.Serial] {
			t.Fatalf("duplicate disk serial %s", m.Disk.Serial)
		}
		serials[m.Disk.Serial] = true
		for _, mac := range m.HW.MACs {
			if macs[mac] {
				t.Fatalf("duplicate MAC %s", mac)
			}
			macs[mac] = true
		}
		if !strings.HasPrefix(m.ID, m.Lab+"-") {
			t.Errorf("machine ID %s not prefixed by lab %s", m.ID, m.Lab)
		}
	}
}

func TestTotalPerfIndex(t *testing.T) {
	var got float64
	for _, s := range PaperCatalog() {
		got += float64(s.Machines) * s.PerfIndex()
	}
	// Sum over Table 1: 16·(31.8+31.8+38+31.9+21.55+37.95+22.8+20.45+12.95+12.95)+9·12.9 = 4310.5
	if got < 4310 || got > 4311 {
		t.Errorf("total perf index = %.1f, want 4310.5", got)
	}
}

func TestSpecPerfIndex(t *testing.T) {
	s := Spec{IntIndex: 30, FPIndex: 34}
	if s.PerfIndex() != 32 {
		t.Errorf("PerfIndex = %v", s.PerfIndex())
	}
}

func TestSpecOfUnknownPanics(t *testing.T) {
	f := BuildPaperFleet(1)
	m := f.Machines[0]
	m.Lab = "nope"
	defer func() {
		if recover() == nil {
			t.Error("SpecOf unknown lab did not panic")
		}
	}()
	f.SpecOf(m)
}
