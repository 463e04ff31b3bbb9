package trace

import (
	"testing"
	"time"
)

var t0 = time.Date(2003, 10, 6, 8, 0, 0, 0, time.UTC)

// mkSample builds a sample with the fields the tests care about.
func mkSample(machine string, at time.Time, boot time.Time, idle time.Duration, user string) Sample {
	s := Sample{
		Machine:  machine,
		Lab:      "L01",
		Time:     at,
		BootTime: boot,
		Uptime:   at.Sub(boot),
		CPUIdle:  idle,
		DiskGB:   74.5,
	}
	if user != "" {
		s.SessionUser = user
		s.SessionStart = boot
	}
	return s
}

func TestSampleAccessors(t *testing.T) {
	s := mkSample("M1", t0.Add(time.Hour), t0, 50*time.Minute, "u")
	if !s.HasSession() {
		t.Error("HasSession")
	}
	if s.SessionAge() != time.Hour {
		t.Errorf("SessionAge = %v", s.SessionAge())
	}
	s.FreeDiskGB = 54.5
	if s.UsedDiskGB() != 20 {
		t.Errorf("UsedDiskGB = %v", s.UsedDiskGB())
	}
	s2 := mkSample("M1", t0, t0, 0, "")
	if s2.HasSession() || s2.SessionAge() != 0 {
		t.Error("sessionless accessors")
	}
}

func TestSameBoot(t *testing.T) {
	a := mkSample("M1", t0.Add(time.Hour), t0, 0, "")
	b := mkSample("M1", t0.Add(2*time.Hour), t0, 0, "")
	if !SameBoot(&a, &b) {
		t.Error("same boot not detected")
	}
	c := mkSample("M1", t0.Add(3*time.Hour), t0.Add(2*time.Hour+30*time.Minute), 0, "")
	if SameBoot(&b, &c) {
		t.Error("reboot not detected")
	}
	// Sub-second skew tolerated.
	d := mkSample("M1", t0.Add(time.Hour), t0.Add(500*time.Millisecond), 0, "")
	if !SameBoot(&a, &d) {
		t.Error("sub-second boot-time skew rejected")
	}
}

func TestIntervalMetrics(t *testing.T) {
	a := mkSample("M1", t0, t0.Add(-time.Hour), 55*time.Minute, "")
	b := mkSample("M1", t0.Add(15*time.Minute), t0.Add(-time.Hour), 55*time.Minute+12*time.Minute, "")
	a.SentBytes, a.RecvBytes = 1000, 2000
	b.SentBytes, b.RecvBytes = 1000+9000, 2000+18000
	iv := Interval{A: &a, B: &b}
	if iv.Duration() != 15*time.Minute {
		t.Errorf("Duration = %v", iv.Duration())
	}
	if got := iv.CPUIdlePct(); got != 80 {
		t.Errorf("CPUIdlePct = %v, want 80", got)
	}
	if got := iv.SentBps(); got != 9000*8/900.0 {
		t.Errorf("SentBps = %v", got)
	}
	if got := iv.RecvBps(); got != 18000*8/900.0 {
		t.Errorf("RecvBps = %v", got)
	}
}

func TestIntervalClamping(t *testing.T) {
	a := mkSample("M1", t0, t0, 0, "")
	b := mkSample("M1", t0.Add(15*time.Minute), t0, 20*time.Minute, "")
	iv := Interval{A: &a, B: &b}
	if got := iv.CPUIdlePct(); got != 100 {
		t.Errorf("over-100%% idle not clamped: %v", got)
	}
	// Counter regression (should not happen, but must not go negative).
	a.SentBytes = 500
	b.SentBytes = 100
	if got := iv.SentBps(); got != 0 {
		t.Errorf("negative rate = %v", got)
	}
	// Zero-duration interval.
	c := mkSample("M1", t0, t0, 0, "")
	if got := (Interval{A: &a, B: &c}).CPUIdlePct(); got != 0 {
		t.Errorf("zero-duration idle = %v", got)
	}
}

func newDataset() *Dataset {
	d := &Dataset{
		Start:  t0,
		End:    t0.AddDate(0, 0, 1),
		Period: 15 * time.Minute,
		Machines: []MachineInfo{
			{ID: "M1", Lab: "L01", RAMMB: 512, DiskGB: 74.5, IntIndex: 30.5, FPIndex: 33.1},
			{ID: "M2", Lab: "L01", RAMMB: 512, DiskGB: 74.5, IntIndex: 30.5, FPIndex: 33.1},
		},
	}
	boot1 := t0
	boot2 := t0.Add(2 * time.Hour)
	// M1: three samples in one boot, then a reboot and one more.
	d.Samples = append(d.Samples,
		mkSample("M1", t0.Add(15*time.Minute), boot1, 10*time.Minute, ""),
		mkSample("M1", t0.Add(30*time.Minute), boot1, 24*time.Minute, "u"),
		mkSample("M1", t0.Add(45*time.Minute), boot1, 39*time.Minute, "u"),
		mkSample("M1", t0.Add(135*time.Minute), boot2, 10*time.Minute, ""),
		// M2: two samples, same boot, separated by a huge gap (outage).
		mkSample("M2", t0.Add(15*time.Minute), boot1, 10*time.Minute, ""),
		mkSample("M2", t0.Add(5*time.Hour), boot1, 4*time.Hour, ""),
	)
	for i := range d.Samples {
		d.Samples[i].Iter = i
	}
	d.Iterations = []Iteration{
		{Iter: 0, Start: t0, End: t0.Add(3 * time.Minute), Attempted: 2, Responded: 2},
		{Iter: 1, Start: t0.Add(15 * time.Minute), Attempted: 2, Responded: 1, ParseErrors: 1},
	}
	return d
}

func TestDatasetHelpers(t *testing.T) {
	d := newDataset()
	if d.Attempts() != 4 {
		t.Errorf("Attempts = %d", d.Attempts())
	}
	if d.Days() != 1 {
		t.Errorf("Days = %v", d.Days())
	}
	if d.MachineByID("M2") == nil || d.MachineByID("nope") != nil {
		t.Error("MachineByID")
	}
	if got := d.Machines[0].PerfIndex(); got != 31.8 {
		t.Errorf("PerfIndex = %v", got)
	}
}

func TestFromSnapshotMapsFields(t *testing.T) {
	// Covered more fully in the probe round-trip; here just the mapping.
	s := FromSnapshot(3, snapshotFixture())
	if s.Iter != 3 || s.Machine != "L01-M07" || s.Lab != "L01" ||
		s.MemLoadPct != 59 || s.PowerCycles != 289 || s.SessionUser != "u" {
		t.Errorf("FromSnapshot = %+v", s)
	}
}
