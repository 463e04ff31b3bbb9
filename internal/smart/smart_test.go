package smart

import (
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2003, 10, 6, 0, 0, 0, 0, time.UTC)

// UptimePerCycle returns the lifetime average powered-on duration per power
// cycle at time t, the paper's §5.2.2 "uptime per power cycle" estimator.
func (d *Disk) UptimePerCycle(t time.Time) time.Duration {
	if d.cycles == 0 {
		return 0
	}
	return d.powerOnDuration(t) / time.Duration(d.cycles)
}

func TestNewDiskStartsOff(t *testing.T) {
	d := NewDisk("X1", 74.5)
	if d.powered {
		t.Error("new disk is powered")
	}
	if d.PowerCycleCount(t0) != 0 || d.PowerOnHours(t0) != 0 {
		t.Error("new disk has non-zero counters")
	}
}

func TestPowerCycleCounting(t *testing.T) {
	d := NewDisk("X1", 74.5)
	at := t0
	for i := 1; i <= 5; i++ {
		d.PowerOn(at)
		if got := d.PowerCycleCount(at); got != int64(i) {
			t.Fatalf("after %d power-ons: cycles = %d", i, got)
		}
		at = at.Add(2 * time.Hour)
		d.PowerOff(at)
		at = at.Add(30 * time.Minute)
	}
	if got := d.PowerOnHours(at); got != 10 {
		t.Errorf("PowerOnHours = %d, want 10", got)
	}
}

func TestPowerOnHoursTruncation(t *testing.T) {
	d := NewDisk("X1", 74.5)
	d.PowerOn(t0)
	if got := d.PowerOnHours(t0.Add(59 * time.Minute)); got != 0 {
		t.Errorf("59 min reported as %d hours", got)
	}
	if got := d.PowerOnHours(t0.Add(61 * time.Minute)); got != 1 {
		t.Errorf("61 min reported as %d hours", got)
	}
}

func TestHoursWhilePowered(t *testing.T) {
	d := NewDisk("X1", 74.5)
	d.PowerOn(t0)
	if got := d.PowerOnHours(t0.Add(5 * time.Hour)); got != 5 {
		t.Errorf("live hours = %d, want 5", got)
	}
	d.PowerOff(t0.Add(6 * time.Hour))
	// After power-off the counter freezes.
	if got := d.PowerOnHours(t0.Add(100 * time.Hour)); got != 6 {
		t.Errorf("frozen hours = %d, want 6", got)
	}
}

func TestSeedLife(t *testing.T) {
	d := NewDisk("X1", 74.5)
	d.SeedLife(700, 700*6*time.Hour)
	if d.PowerCycleCount(t0) != 700 {
		t.Errorf("seeded cycles = %d", d.PowerCycleCount(t0))
	}
	if d.PowerOnHours(t0) != 4200 {
		t.Errorf("seeded hours = %d", d.PowerOnHours(t0))
	}
	if got := d.UptimePerCycle(t0); got != 6*time.Hour {
		t.Errorf("UptimePerCycle = %v, want 6h", got)
	}
}

func TestUptimePerCycleBlendsLife(t *testing.T) {
	d := NewDisk("X1", 74.5)
	d.SeedLife(9, 9*4*time.Hour) // 4 h/cycle history
	d.PowerOn(t0)
	d.PowerOff(t0.Add(24 * time.Hour)) // one long 24 h cycle
	want := (9*4 + 24) * time.Hour / 10
	if got := d.UptimePerCycle(t0.Add(24 * time.Hour)); got != want {
		t.Errorf("UptimePerCycle = %v, want %v", got, want)
	}
}

func TestUptimePerCycleZeroCycles(t *testing.T) {
	d := NewDisk("X1", 74.5)
	if d.UptimePerCycle(t0) != 0 {
		t.Error("UptimePerCycle with zero cycles should be 0")
	}
}

func TestDoublePowerOnPanics(t *testing.T) {
	d := NewDisk("X1", 74.5)
	d.PowerOn(t0)
	defer func() {
		if recover() == nil {
			t.Error("double PowerOn did not panic")
		}
	}()
	d.PowerOn(t0.Add(time.Hour))
}

func TestPowerOffWhileOffPanics(t *testing.T) {
	d := NewDisk("X1", 74.5)
	defer func() {
		if recover() == nil {
			t.Error("PowerOff while off did not panic")
		}
	}()
	d.PowerOff(t0)
}

func TestNegativeSeedPanics(t *testing.T) {
	d := NewDisk("X1", 74.5)
	defer func() {
		if recover() == nil {
			t.Error("negative seed did not panic")
		}
	}()
	d.SeedLife(-1, time.Hour)
}

// Property: counters are monotone non-decreasing under any sequence of
// power sessions.
func TestCountersMonotone(t *testing.T) {
	f := func(durations []uint8) bool {
		d := NewDisk("P", 10)
		at := t0
		lastCycles, lastHours := int64(0), int64(0)
		for _, dur := range durations {
			d.PowerOn(at)
			at = at.Add(time.Duration(dur) * time.Minute)
			d.PowerOff(at)
			at = at.Add(5 * time.Minute)
			c, h := d.PowerCycleCount(at), d.PowerOnHours(at)
			if c < lastCycles || h < lastHours {
				return false
			}
			lastCycles, lastHours = c, h
		}
		return lastCycles == int64(len(durations))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
