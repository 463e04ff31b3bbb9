package behavior

import (
	"testing"
	"time"

	"winlab/internal/lab"
	"winlab/internal/machine"
	"winlab/internal/sim"
)

// runModel simulates `days` days on a small fleet and returns the model
// and fleet for inspection.
func runModel(t *testing.T, seed int64, days int) (*Model, *lab.Fleet) {
	t.Helper()
	specs := lab.PaperCatalog()[:3] // 48 machines is plenty for behaviour checks
	fleet := lab.Build(specs, seed, lab.DefaultDiskLife())
	cfg := DefaultConfig(seed)
	md := NewModel(cfg, fleet)
	eng := sim.New(monday)
	end := monday.AddDate(0, 0, days)
	md.Install(eng, monday, end)
	eng.RunUntil(end)
	return md, fleet
}

func TestModelRunsWithoutPanic(t *testing.T) {
	md, fleet := runModel(t, 1, 7)
	if md.Boots == 0 || md.Logins == 0 {
		t.Errorf("model inert: boots=%d logins=%d", md.Boots, md.Logins)
	}
	// Ground-truth logs exist.
	var powers, sessions int
	for _, m := range fleet.Machines {
		powers += len(m.PowerLog)
		sessions += len(m.SessionLog)
	}
	if powers == 0 || sessions == 0 {
		t.Errorf("no ground truth: %d power records, %d sessions", powers, sessions)
	}
}

func TestModelDeterministic(t *testing.T) {
	a, fa := runModel(t, 5, 3)
	b, fb := runModel(t, 5, 3)
	if a.Boots != b.Boots || a.Logins != b.Logins || a.Forgets != b.Forgets ||
		a.Crashes != b.Crashes || a.PhantomCycles != b.PhantomCycles {
		t.Errorf("counters differ: %+v vs %+v",
			[5]int64{a.Boots, a.Logins, a.Forgets, a.Crashes, a.PhantomCycles},
			[5]int64{b.Boots, b.Logins, b.Forgets, b.Crashes, b.PhantomCycles})
	}
	for i := range fa.Machines {
		if len(fa.Machines[i].PowerLog) != len(fb.Machines[i].PowerLog) {
			t.Fatalf("machine %d power log lengths differ", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, _ := runModel(t, 1, 3)
	b, _ := runModel(t, 2, 3)
	if a.Logins == b.Logins && a.Boots == b.Boots && a.PhantomCycles == b.PhantomCycles {
		t.Error("different seeds produced identical counters (suspicious)")
	}
}

func TestGroundTruthConsistency(t *testing.T) {
	_, fleet := runModel(t, 3, 7)
	for _, m := range fleet.Machines {
		// Power sessions are ordered and non-overlapping.
		for i, p := range m.PowerLog {
			if !p.End.After(p.Start) {
				t.Fatalf("%s: empty power session %+v", m.ID, p)
			}
			if i > 0 && p.Start.Before(m.PowerLog[i-1].End) {
				t.Fatalf("%s: overlapping power sessions", m.ID)
			}
		}
		// Interactive sessions are contained in power sessions.
		for _, s := range m.SessionLog {
			if !s.End.After(s.Start) {
				t.Fatalf("%s: empty session %+v", m.ID, s)
			}
			contained := false
			for _, p := range m.PowerLog {
				if !s.Start.Before(p.Start) && !s.End.After(p.End) {
					contained = true
					break
				}
			}
			if !contained && m.Powered() {
				// The machine may still be on at experiment end; then its
				// last boot has no PowerLog entry yet. Accept sessions that
				// start after the last logged power-off.
				if len(m.PowerLog) > 0 && s.Start.Before(m.PowerLog[len(m.PowerLog)-1].End) {
					t.Fatalf("%s: session %+v outside any power session", m.ID, s)
				}
				contained = true
			}
			if !contained {
				t.Fatalf("%s: session %+v outside any power session", m.ID, s)
			}
		}
	}
}

func TestSessionsHappenWhileOpen(t *testing.T) {
	md, fleet := runModel(t, 4, 7)
	cal := md.Calendar()
	for _, m := range fleet.Machines {
		for _, s := range m.SessionLog {
			// Sessions must *start* during open hours or at most a boot
			// delay after a claim near closing (a few minutes of slack).
			if !cal.IsOpen(s.Start) && !cal.IsOpen(s.Start.Add(-16*time.Minute)) {
				t.Errorf("%s: session started at %v while closed", m.ID, s.Start)
			}
		}
	}
}

func TestClassOccupiesLab(t *testing.T) {
	// Build a fleet with one lab and a deterministic timetable; check that
	// class start raises lab occupancy.
	specs := lab.PaperCatalog()[:1]
	fleet := lab.Build(specs, 11, lab.DefaultDiskLife())
	cfg := DefaultConfig(11)
	cfg.ArrivalPeakPerHour = 0 // isolate class behaviour
	cfg.PhantomPerOpenHour = 0
	md := NewModel(cfg, fleet)
	eng := sim.New(monday)
	end := monday.AddDate(0, 0, 5)
	md.Install(eng, monday, end)

	classes := md.tt.ForLab("L01")
	if len(classes) == 0 {
		t.Skip("generated timetable has no class for L01 at this seed")
	}
	c := classes[0]
	day := int(c.Day-time.Monday+7) % 7
	mid := monday.AddDate(0, 0, day).Add(time.Duration(c.StartHour)*time.Hour + time.Hour)
	if !mid.Before(end) {
		t.Skip("class outside simulated window")
	}
	eng.RunUntil(mid)
	occupied := 0
	for _, m := range fleet.ByLab["L01"] {
		if m.Powered() && m.Session() != nil {
			occupied++
		}
	}
	if occupied < 4 { // attendance ≥ 0.55 of 16, minus stragglers
		t.Errorf("only %d machines occupied mid-class", occupied)
	}
}

func TestForgottenSessionsExist(t *testing.T) {
	md, fleet := runModel(t, 6, 7)
	if md.Forgets == 0 {
		t.Fatal("no forgotten sessions in a week")
	}
	found := false
	for _, m := range fleet.Machines {
		for _, s := range m.SessionLog {
			if s.Forgotten && s.End.Sub(s.Start) >= 10*time.Hour {
				found = true
			}
		}
	}
	if !found {
		t.Error("no forgotten session lasted ≥10 h (the paper's threshold would never fire)")
	}
}

func TestPhantomCyclesAreShort(t *testing.T) {
	specs := lab.PaperCatalog()[:1]
	fleet := lab.Build(specs, 13, lab.DefaultDiskLife())
	cfg := DefaultConfig(13)
	cfg.ArrivalPeakPerHour = 0
	cfg.WeekdayClassMeanPerLab = 0
	cfg.SaturdayClassMeanPerLab = 0
	cfg.CPUHogLabs = nil
	md := NewModel(cfg, fleet)
	eng := sim.New(monday)
	end := monday.AddDate(0, 0, 7)
	md.Install(eng, monday, end)
	eng.RunUntil(end)
	if md.PhantomCycles == 0 {
		t.Fatal("no phantom cycles")
	}
	if md.Logins != 0 {
		t.Fatalf("phantom-only run had %d logins", md.Logins)
	}
	for _, m := range fleet.Machines {
		for _, p := range m.PowerLog {
			if d := p.Duration(); d > 10*time.Minute {
				t.Errorf("%s: phantom session lasted %v", m.ID, d)
			}
		}
	}
}

func TestHogClassLoadsCPU(t *testing.T) {
	specs := lab.PaperCatalog()[2:3] // L03, a CPU-hog lab
	fleet := lab.Build(specs, 17, lab.DefaultDiskLife())
	cfg := DefaultConfig(17)
	cfg.ArrivalPeakPerHour = 0
	cfg.PhantomPerOpenHour = 0
	cfg.WeekdayClassMeanPerLab = 0
	cfg.SaturdayClassMeanPerLab = 0
	md := NewModel(cfg, fleet)
	eng := sim.New(monday)
	end := monday.AddDate(0, 0, 3)
	md.Install(eng, monday, end)
	// Tuesday 15:30, mid-hog-class.
	eng.RunUntil(monday.AddDate(0, 0, 1).Add(15*time.Hour + 30*time.Minute))
	busy := 0
	for _, m := range fleet.ByLab["L03"] {
		if m.Powered() && m.CPUBusy() > 0.2 {
			busy++
		}
	}
	if busy < 4 {
		t.Errorf("CPU-hog class: only %d machines heavily loaded", busy)
	}
}

func TestClosingSweepPowersMachinesOff(t *testing.T) {
	md, fleet := runModel(t, 8, 7)
	_ = md
	// At Sunday noon (closed since Saturday 21:00), most machines are off.
	// We can only check final state at day 7 (Monday 00:00): still closed.
	on := 0
	for _, m := range fleet.Machines {
		if m.Powered() {
			on++
		}
	}
	if on > len(fleet.Machines)/2 {
		t.Errorf("%d/%d machines on after the weekend closure", on, len(fleet.Machines))
	}
}

func TestMachineStateMatchesKind(t *testing.T) {
	// Internal invariant: controllers marked with an active session hold a
	// machine with an open session, and vice versa.
	specs := lab.PaperCatalog()[:2]
	fleet := lab.Build(specs, 19, lab.DefaultDiskLife())
	cfg := DefaultConfig(19)
	md := NewModel(cfg, fleet)
	eng := sim.New(monday)
	end := monday.AddDate(0, 0, 2)
	md.Install(eng, monday, end)
	for eng.Step() {
		if eng.Fired()%1000 != 0 {
			continue
		}
		for _, mc := range md.ctl {
			switch mc.kind {
			case kindFree, kindClass:
				if mc.m.Session() == nil {
					t.Fatalf("%s: kind %d without machine session", mc.m.ID, mc.kind)
				}
				if mc.m.Session().Forgotten {
					t.Fatalf("%s: active kind with forgotten session", mc.m.ID)
				}
			case kindForgotten:
				if mc.m.Session() == nil || !mc.m.Session().Forgotten {
					t.Fatalf("%s: forgotten kind without forgotten session", mc.m.ID)
				}
			default:
				if !mc.pending && mc.m.Session() != nil {
					t.Fatalf("%s: kindNone with open session", mc.m.ID)
				}
			}
		}
	}
}

func TestActivitiesClearedOnLogout(t *testing.T) {
	_, fleet := runModel(t, 21, 3)
	for _, m := range fleet.Machines {
		if !m.Powered() || m.Session() != nil {
			continue
		}
		for _, name := range m.Activities() {
			if name == machine.ActInteractive || name == machine.ActClass {
				t.Errorf("%s: stale activity %q on idle machine", m.ID, name)
			}
		}
	}
}
