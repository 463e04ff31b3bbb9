package machine

import (
	"testing"
	"testing/quick"
	"time"

	"winlab/internal/smart"
)

var t0 = time.Date(2003, 10, 6, 8, 0, 0, 0, time.UTC)

// PerfIndex returns the combined performance index used by the paper's
// cluster-equivalence computation: a 50% weight on each of INT and FP.
func (h Hardware) PerfIndex() float64 {
	return 0.5*h.IntIndex + 0.5*h.FPIndex
}

// SessionAge returns how long the interactive session had been open at
// snapshot time, or 0 when there is none.
func (s Snapshot) SessionAge() time.Duration {
	if !s.HasSession() {
		return 0
	}
	return s.Time.Sub(s.SessionStart)
}

func newTestMachine() *Machine {
	hw := Hardware{
		CPUModel: "Intel Pentium 4", CPUGHz: 2.4, RAMMB: 512,
		DiskGB: 74.5, IntIndex: 30.5, FPIndex: 33.1,
		MACs: []string{SyntheticMAC(1)}, OS: "Windows 2000 Professional SP3",
	}
	return New("L01-M01", "L01", hw, smart.NewDisk("D1", 74.5))
}

func TestDefaultSwap(t *testing.T) {
	m := newTestMachine()
	if m.HW.SwapMB != 768 { // 1.5 × 512
		t.Errorf("SwapMB = %d, want 768", m.HW.SwapMB)
	}
	if DefaultSwapMB(128) != 192 {
		t.Errorf("DefaultSwapMB(128) = %d", DefaultSwapMB(128))
	}
}

func TestPowerLifecycle(t *testing.T) {
	m := newTestMachine()
	if m.Powered() {
		t.Fatal("new machine powered")
	}
	if _, ok := m.Snapshot(t0); ok {
		t.Fatal("snapshot of powered-off machine succeeded")
	}
	m.PowerOn(t0)
	if !m.Powered() || !m.BootTime().Equal(t0) {
		t.Fatal("PowerOn state wrong")
	}
	if m.Disk.PowerCycleCount(t0) != 1 {
		t.Fatal("disk not powered with machine")
	}
	m.PowerOff(t0.Add(3 * time.Hour))
	if m.Powered() || m.Disk.PowerOnHours(t0.Add(10*time.Hour)) != 3 {
		t.Fatal("PowerOff state wrong")
	}
	if len(m.PowerLog) != 1 || m.PowerLog[0].Duration() != 3*time.Hour {
		t.Fatalf("PowerLog = %+v", m.PowerLog)
	}
	if !m.BootTime().IsZero() {
		t.Error("BootTime of off machine not zero")
	}
}

func TestCPUIdleIntegration(t *testing.T) {
	m := newTestMachine()
	m.PowerOn(t0)
	m.SetBaseline(212, 148, 20)
	// 30 minutes fully idle, then 30 minutes at 40% busy.
	m.SetActivity(t0.Add(30*time.Minute), Activity{Name: ActInteractive, CPU: 0.4})
	sn, ok := m.Snapshot(t0.Add(time.Hour))
	if !ok {
		t.Fatal("snapshot failed")
	}
	wantIdle := 30*time.Minute + time.Duration(0.6*float64(30*time.Minute))
	if diff := sn.CPUIdle - wantIdle; diff < -time.Second || diff > time.Second {
		t.Errorf("CPUIdle = %v, want ≈%v", sn.CPUIdle, wantIdle)
	}
	if sn.Uptime != time.Hour {
		t.Errorf("Uptime = %v", sn.Uptime)
	}
}

func TestCPUSaturation(t *testing.T) {
	m := newTestMachine()
	m.PowerOn(t0)
	m.SetActivity(t0, Activity{Name: "a", CPU: 0.7})
	m.SetActivity(t0, Activity{Name: "b", CPU: 0.8})
	if m.CPUBusy() != 1 {
		t.Errorf("CPU busy = %v, want clamp to 1", m.CPUBusy())
	}
	sn, _ := m.Snapshot(t0.Add(time.Hour))
	if sn.CPUIdle != 0 {
		t.Errorf("CPUIdle = %v under saturation", sn.CPUIdle)
	}
}

func TestNetworkCounters(t *testing.T) {
	m := newTestMachine()
	m.PowerOn(t0)
	m.SetActivity(t0, Activity{Name: ActInteractive, SendBps: 8000, RecvBps: 16000})
	sn, _ := m.Snapshot(t0.Add(10 * time.Second))
	if sn.SentBytes != 10000 { // 8000 bps = 1000 B/s
		t.Errorf("SentBytes = %d, want 10000", sn.SentBytes)
	}
	if sn.RecvBytes != 20000 {
		t.Errorf("RecvBytes = %d, want 20000", sn.RecvBytes)
	}
}

func TestCountersResetAtBoot(t *testing.T) {
	m := newTestMachine()
	m.PowerOn(t0)
	m.SetActivity(t0, Activity{Name: "x", CPU: 0.5, SendBps: 800})
	m.PowerOff(t0.Add(time.Hour))
	m.PowerOn(t0.Add(2 * time.Hour))
	sn, _ := m.Snapshot(t0.Add(2*time.Hour + time.Minute))
	if sn.SentBytes != 0 {
		t.Errorf("SentBytes after reboot = %d", sn.SentBytes)
	}
	if sn.CPUIdle != time.Minute {
		t.Errorf("CPUIdle after reboot = %v, want 1m (activities cleared)", sn.CPUIdle)
	}
	if sn.PowerCycles != 2 {
		t.Errorf("SMART cycles = %d, want 2 (persist across boots)", sn.PowerCycles)
	}
}

func TestSessionLifecycle(t *testing.T) {
	m := newTestMachine()
	m.PowerOn(t0)
	m.Login(t0.Add(5*time.Minute), "alice")
	s := m.Session()
	if s == nil || s.User != "alice" || s.Forgotten {
		t.Fatalf("session = %+v", s)
	}
	sn, _ := m.Snapshot(t0.Add(20 * time.Minute))
	if !sn.HasSession() || sn.SessionUser != "alice" {
		t.Fatal("snapshot misses session")
	}
	if got := sn.SessionAge(); got != 15*time.Minute {
		t.Errorf("SessionAge = %v", got)
	}
	m.Logout(t0.Add(30 * time.Minute))
	if m.Session() != nil {
		t.Fatal("session survives logout")
	}
	if len(m.SessionLog) != 1 {
		t.Fatalf("SessionLog = %+v", m.SessionLog)
	}
	rec := m.SessionLog[0]
	if rec.User != "alice" || rec.End.Sub(rec.Start) != 25*time.Minute || rec.Forgotten {
		t.Errorf("session record = %+v", rec)
	}
}

func TestForget(t *testing.T) {
	m := newTestMachine()
	m.PowerOn(t0)
	m.Login(t0, "bob")
	m.Forget(t0.Add(time.Hour))
	if s := m.Session(); s == nil || !s.Forgotten {
		t.Fatal("Forget did not mark session")
	}
	// The session stays visible to the probe.
	sn, _ := m.Snapshot(t0.Add(12 * time.Hour))
	if !sn.HasSession() || sn.SessionAge() != 12*time.Hour {
		t.Errorf("forgotten session not visible: %+v", sn.SessionUser)
	}
	// PowerOff closes it and records ground truth.
	m.PowerOff(t0.Add(13 * time.Hour))
	if len(m.SessionLog) != 1 || !m.SessionLog[0].Forgotten {
		t.Errorf("SessionLog = %+v", m.SessionLog)
	}
}

func TestMemoryModel(t *testing.T) {
	m := newTestMachine()
	m.PowerOn(t0)
	m.SetBaseline(212, 148, 20)
	if got := m.MemLoadPct(); got < 41 || got > 42 {
		t.Errorf("baseline mem load = %v, want ≈41.4", got)
	}
	m.SetActivity(t0, Activity{Name: ActInteractive, MemMB: 88, SwapMB: 55})
	if got := m.MemLoadPct(); got < 58 || got > 59 {
		t.Errorf("mem load with apps = %v, want ≈58.6", got)
	}
	if got := m.SwapLoadPct(); got < 26 || got > 27 {
		t.Errorf("swap load = %v, want ≈26.4", got)
	}
}

func TestMemoryPressureSpillsToSwap(t *testing.T) {
	m := newTestMachine()
	m.PowerOn(t0)
	m.SetBaseline(212, 148, 20)
	m.SetActivity(t0, Activity{Name: ActInteractive, MemMB: 500, SwapMB: 50})
	if got := m.MemLoadPct(); got != 100 {
		t.Errorf("mem load = %v, want clamp at 100", got)
	}
	// Commit beyond RAM (212+500−512 = 200 MB) lands in the pagefile:
	// (148 + 50 + 200) / 768 ≈ 51.8%.
	if got := m.SwapLoadPct(); got < 51 || got > 53 {
		t.Errorf("swap load = %v, want ≈51.8", got)
	}
}

func TestDiskModel(t *testing.T) {
	m := newTestMachine()
	m.PowerOn(t0)
	m.SetBaseline(212, 148, 20)
	if got := m.UsedDiskGB(); got != 20 {
		t.Errorf("used disk = %v", got)
	}
	m.Login(t0, "u")
	m.GrowTemp(t0.Add(time.Minute), 0.25)
	if got := m.UsedDiskGB(); got != 20.25 {
		t.Errorf("used disk with temp = %v", got)
	}
	m.Logout(t0.Add(time.Hour))
	if got := m.UsedDiskGB(); got != 20 {
		t.Errorf("temp not cleaned after logout: %v", got)
	}
	sn, _ := m.Snapshot(t0.Add(2 * time.Hour))
	if sn.FreeDiskGB != 54.5 {
		t.Errorf("free disk = %v", sn.FreeDiskGB)
	}
}

func TestActivityReplaceAndClear(t *testing.T) {
	m := newTestMachine()
	m.PowerOn(t0)
	m.SetActivity(t0, Activity{Name: "x", CPU: 0.5})
	m.SetActivity(t0, Activity{Name: "x", CPU: 0.1}) // replace, not add
	if got := m.CPUBusy(); got != 0.1 {
		t.Errorf("CPU busy after replace = %v", got)
	}
	m.ClearActivity(t0, "x")
	if got := m.CPUBusy(); got != 0 {
		t.Errorf("CPU busy after clear = %v", got)
	}
	m.ClearActivity(t0, "missing") // no-op
	if names := m.Activities(); len(names) != 0 {
		t.Errorf("activities = %v", names)
	}
}

func TestActivitiesSorted(t *testing.T) {
	m := newTestMachine()
	m.PowerOn(t0)
	m.SetActivity(t0, Activity{Name: "zeta"})
	m.SetActivity(t0, Activity{Name: "alpha"})
	names := m.Activities()
	if len(names) != 2 || names[0] != "alpha" || names[1] != "zeta" {
		t.Errorf("Activities() = %v", names)
	}
}

func TestStatePanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func(m *Machine)
	}{
		{"PowerOn twice", func(m *Machine) { m.PowerOn(t0); m.PowerOn(t0.Add(time.Hour)) }},
		{"PowerOff while off", func(m *Machine) { m.PowerOff(t0) }},
		{"Login while off", func(m *Machine) { m.Login(t0, "u") }},
		{"Login over session", func(m *Machine) {
			m.PowerOn(t0)
			m.Login(t0, "a")
			m.Login(t0, "b")
		}},
		{"Logout without session", func(m *Machine) { m.PowerOn(t0); m.Logout(t0) }},
		{"Forget without session", func(m *Machine) { m.PowerOn(t0); m.Forget(t0) }},
		{"SetActivity while off", func(m *Machine) { m.SetActivity(t0, Activity{Name: "x"}) }},
		{"time going backwards", func(m *Machine) {
			m.PowerOn(t0)
			_, _ = m.Snapshot(t0.Add(time.Hour))
			_, _ = m.Snapshot(t0)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", c.name)
				}
			}()
			c.fn(newTestMachine())
		})
	}
}

func TestSnapshotStaticFields(t *testing.T) {
	m := newTestMachine()
	m.PowerOn(t0)
	sn, _ := m.Snapshot(t0.Add(time.Minute))
	if sn.ID != "L01-M01" || sn.Lab != "L01" || sn.CPUModel != "Intel Pentium 4" ||
		sn.RAMMB != 512 || sn.DiskGB != 74.5 || sn.Serial != "D1" ||
		len(sn.MACs) != 1 || sn.OS == "" {
		t.Errorf("static fields wrong: %+v", sn)
	}
}

func TestPerfIndex(t *testing.T) {
	hw := Hardware{IntIndex: 30, FPIndex: 34}
	if hw.PerfIndex() != 32 {
		t.Errorf("PerfIndex = %v", hw.PerfIndex())
	}
}

func TestSyntheticMACStable(t *testing.T) {
	if SyntheticMAC(5) != SyntheticMAC(5) {
		t.Error("MAC not stable")
	}
	if SyntheticMAC(5) == SyntheticMAC(6) {
		t.Error("MAC collision")
	}
	if got := SyntheticMAC(0x0A0B0C); got != "02:57:4C:0A:0B:0C" {
		t.Errorf("MAC = %s", got)
	}
}

// TestQuickOpSequences drives a machine through random valid operation
// sequences and checks the invariants the analysis relies on: idle time
// never exceeds uptime, SMART counters are monotone, network counters
// reset per boot and never decrease within one.
func TestQuickOpSequences(t *testing.T) {
	f := func(ops []uint8) bool {
		m := newTestMachine()
		at := t0
		var lastCycles int64
		var lastSent uint64
		poweredSince := time.Time{}
		for _, op := range ops {
			at = at.Add(time.Duration(1+op%7) * time.Minute)
			switch op % 5 {
			case 0:
				if !m.Powered() {
					m.PowerOn(at)
					m.SetBaseline(212, 148, 20)
					poweredSince = at
					lastSent = 0
				}
			case 1:
				if m.Powered() {
					m.PowerOff(at)
				}
			case 2:
				if m.Powered() && m.Session() == nil {
					m.Login(at, "q")
				}
			case 3:
				if m.Session() != nil {
					m.Logout(at)
				}
			case 4:
				if m.Powered() {
					m.SetActivity(at, Activity{
						Name:    ActInteractive,
						CPU:     float64(op%100) / 100,
						SendBps: float64(op) * 10,
					})
				}
			}
			if m.Powered() {
				sn, ok := m.Snapshot(at)
				if !ok {
					return false
				}
				if sn.CPUIdle > sn.Uptime+time.Second {
					return false
				}
				if sn.Uptime != at.Sub(poweredSince) {
					return false
				}
				if sn.SentBytes < lastSent {
					return false
				}
				lastSent = sn.SentBytes
				if sn.PowerCycles < lastCycles {
					return false
				}
				lastCycles = sn.PowerCycles
				if sn.MemLoadPct < 0 || sn.MemLoadPct > 100 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
