package analysis

import (
	"testing"
	"time"

	"winlab/internal/trace"
)

var t0 = time.Date(2003, 10, 6, 0, 0, 0, 0, time.UTC) // Monday 00:00

// builder assembles synthetic datasets with exact, hand-checkable metrics.
type builder struct {
	d    *trace.Dataset
	iter map[int]bool
}

func newBuilder(days int, machines ...string) *builder {
	b := &builder{
		d: &trace.Dataset{
			Start:  t0,
			End:    t0.AddDate(0, 0, days),
			Period: 15 * time.Minute,
		},
		iter: map[int]bool{},
	}
	for _, id := range machines {
		b.d.Machines = append(b.d.Machines, trace.MachineInfo{
			ID: id, Lab: "L01", RAMMB: 512, DiskGB: 74.5, IntIndex: 30, FPIndex: 34,
		})
	}
	return b
}

// sample appends a sample at iteration iter for the machine, booted at
// boot, idle for idleFrac of the time since boot, with an optional session
// started at sess.
func (b *builder) sample(iter int, id string, boot time.Time, idleFrac float64, user string, sess time.Time) *trace.Sample {
	at := t0.Add(time.Duration(iter) * 15 * time.Minute)
	up := at.Sub(boot)
	s := trace.Sample{
		Iter:     iter,
		Time:     at,
		Machine:  id,
		Lab:      "L01",
		BootTime: boot,
		Uptime:   up,
		CPUIdle:  time.Duration(idleFrac * float64(up)),
		DiskGB:   74.5,
	}
	if user != "" {
		s.SessionUser = user
		s.SessionStart = sess
	}
	b.d.Samples = append(b.d.Samples, s)
	if !b.iter[iter] {
		b.iter[iter] = true
		b.d.Iterations = append(b.d.Iterations, trace.Iteration{
			Iter:      iter,
			Start:     at,
			Attempted: len(b.d.Machines),
		})
	}
	for i := range b.d.Iterations {
		if b.d.Iterations[i].Iter == iter {
			b.d.Iterations[i].Responded++
		}
	}
	return &b.d.Samples[len(b.d.Samples)-1]
}

func TestClassify(t *testing.T) {
	s := trace.Sample{Time: t0.Add(12 * time.Hour)}
	if got := Classify(&s, DefaultForgottenThreshold); got != NoLogin {
		t.Errorf("no session classified %v", got)
	}
	s.SessionUser = "u"
	s.SessionStart = t0.Add(4 * time.Hour) // 8 h old
	if got := Classify(&s, DefaultForgottenThreshold); got != WithLogin {
		t.Errorf("8h session classified %v", got)
	}
	s.SessionStart = t0 // 12 h old
	if got := Classify(&s, DefaultForgottenThreshold); got != Forgotten {
		t.Errorf("12h session classified %v", got)
	}
	if got := Classify(&s, 0); got != WithLogin {
		t.Errorf("zero threshold classified %v", got)
	}
	if Forgotten.Occupied() || !WithLogin.Occupied() || NoLogin.Occupied() {
		t.Error("Occupied() wrong")
	}
	for _, c := range []Class{NoLogin, WithLogin, Forgotten, Class(99)} {
		if c.String() == "" {
			t.Error("empty class name")
		}
	}
}

func TestReclassify(t *testing.T) {
	b := newBuilder(1, "M1")
	boot := t0
	b.sample(1, "M1", boot, 0.9, "", time.Time{})
	b.sample(2, "M1", boot, 0.9, "u", t0)   // 30 m old: kept
	b.sample(48, "M1", boot, 0.99, "u", t0) // 12 h old: reclassified
	st := All(b.d, Options{}).Table2.Reclass
	if st.RawLoginSamples != 2 || st.Reclassified != 1 {
		t.Errorf("Reclassify = %+v", st)
	}
}

func TestMainResultsExactSplit(t *testing.T) {
	b := newBuilder(1, "M1", "M2")
	boot := t0
	// M1 idles at 90%; no session.
	prev := 0.0
	_ = prev
	for i := 1; i <= 4; i++ {
		b.sample(i, "M1", boot, 0.90, "", time.Time{})
	}
	// M2 runs a session from boot, 60% idle.
	for i := 1; i <= 4; i++ {
		b.sample(i, "M2", boot, 0.60, "u", boot)
	}
	t2 := All(b.d, Options{}).Table2
	if t2.NoLogin.Samples != 4 || t2.WithLogin.Samples != 4 || t2.Both.Samples != 8 {
		t.Fatalf("sample split: %d/%d/%d", t2.NoLogin.Samples, t2.WithLogin.Samples, t2.Both.Samples)
	}
	// Cumulative idle at constant fraction f yields interval idleness f.
	if got := t2.NoLogin.CPUIdlePct; got < 89.9 || got > 90.1 {
		t.Errorf("no-login idle = %v, want 90", got)
	}
	if got := t2.WithLogin.CPUIdlePct; got < 59.9 || got > 60.1 {
		t.Errorf("with-login idle = %v, want 60", got)
	}
	if got := t2.Both.CPUIdlePct; got < 74.9 || got > 75.1 {
		t.Errorf("both idle = %v, want 75", got)
	}
	// Uptime percentages: 4 iterations × 2 machines attempted = 8 attempts.
	if got := t2.Both.UptimePct; got != 100 {
		t.Errorf("both uptime = %v, want 100", got)
	}
	if got := t2.NoLogin.UptimePct; got != 50 {
		t.Errorf("no-login uptime = %v, want 50", got)
	}
}

func TestMainResultsForgottenGoesToNoLogin(t *testing.T) {
	b := newBuilder(2, "M1")
	boot := t0
	for i := 1; i <= 50; i++ { // sessions age past 10 h by iteration 41
		b.sample(i, "M1", boot, 0.95, "u", boot)
	}
	t2 := All(b.d, Options{}).Table2
	if t2.Reclass.Reclassified == 0 {
		t.Fatal("nothing reclassified")
	}
	wantNo := t2.Reclass.Reclassified
	if t2.NoLogin.Samples != wantNo {
		t.Errorf("no-login samples = %d, want %d (the forgotten ones)", t2.NoLogin.Samples, wantNo)
	}
	if t2.WithLogin.Samples+t2.NoLogin.Samples != t2.Both.Samples {
		t.Error("split does not add up")
	}
}

func TestIntervalsSkipReboots(t *testing.T) {
	b := newBuilder(1, "M1")
	b.sample(1, "M1", t0, 0.5, "", time.Time{})
	b.sample(2, "M1", t0.Add(20*time.Minute), 0.5, "", time.Time{}) // rebooted
	t2 := All(b.d, Options{}).Table2
	if t2.Both.CPUIdlePct != 0 || t2.Both.Samples != 2 {
		// No valid interval: idle stays at accumulator zero.
		t.Errorf("reboot-crossing interval used: %+v", t2.Both)
	}
}

func TestSessionAgeProfile(t *testing.T) {
	b := newBuilder(2, "M1", "M2")
	boot := t0
	// M1: active session, 85% idle, all samples within age < 2 h.
	for i := 1; i <= 8; i++ {
		b.sample(i, "M1", boot, 0.85, "u", boot)
	}
	// M2: forgotten-style session, 99.8% idle, ages 0..12 h.
	for i := 1; i <= 48; i++ {
		b.sample(i, "M2", boot, 0.998, "v", boot)
	}
	p := All(b.d, Options{SessionAgeHours: 24}).SessionAge
	if len(p.Buckets) != 24 {
		t.Fatalf("buckets = %d", len(p.Buckets))
	}
	if p.Buckets[0].Samples == 0 || p.Buckets[11].Samples == 0 {
		t.Fatal("expected samples in buckets 0 and 11")
	}
	if p.Buckets[0].CPUIdlePct >= 99 {
		t.Errorf("bucket 0 idle = %v (should mix the active session)", p.Buckets[0].CPUIdlePct)
	}
	if p.Buckets[11].CPUIdlePct < 99 {
		t.Errorf("bucket 11 idle = %v (pure forgotten)", p.Buckets[11].CPUIdlePct)
	}
	h := p.FirstBucketAtOrAbove(99)
	if h < 2 || h > 11 {
		t.Errorf("threshold bucket = %d", h)
	}
	// Ages beyond the cap fold into the last bucket.
	if p.Buckets[23].Samples == 0 {
		t.Log("note: no samples beyond 23 h (fine for this fixture)")
	}
}

func TestAvailabilitySeries(t *testing.T) {
	b := newBuilder(1, "M1", "M2", "M3")
	boot := t0
	b.sample(1, "M1", boot, 0.9, "", time.Time{})
	b.sample(1, "M2", boot, 0.9, "u", boot.Add(14*time.Minute))
	b.sample(2, "M1", boot, 0.9, "", time.Time{})
	av := All(b.d, Options{}).Availability
	if len(av.Points) != 2 {
		t.Fatalf("points = %d", len(av.Points))
	}
	if av.Points[0].PoweredOn != 2 || av.Points[0].UserFree != 1 {
		t.Errorf("iter 1: %+v", av.Points[0])
	}
	if av.Points[1].PoweredOn != 1 || av.Points[1].UserFree != 1 {
		t.Errorf("iter 2: %+v", av.Points[1])
	}
	if av.AvgPoweredOn != 1.5 || av.AvgUserFree != 1 {
		t.Errorf("averages: %v/%v", av.AvgPoweredOn, av.AvgUserFree)
	}
}

func TestUptimeRatios(t *testing.T) {
	b := newBuilder(1, "M1", "M2")
	boot := t0
	for i := 1; i <= 8; i++ {
		b.sample(i, "M1", boot, 0.9, "", time.Time{})
		if i <= 4 {
			b.sample(i, "M2", boot, 0.9, "", time.Time{})
		}
	}
	us := All(b.d, Options{}).Uptimes
	if len(us) != 2 {
		t.Fatalf("ratios = %d", len(us))
	}
	if us[0].Machine != "M1" || us[0].Ratio != 1 {
		t.Errorf("top machine %+v", us[0])
	}
	if us[1].Machine != "M2" || us[1].Ratio != 0.5 {
		t.Errorf("second machine %+v", us[1])
	}
	if us[1].Nines <= 0.3 || us[1].Nines >= 0.31 {
		t.Errorf("nines(0.5) = %v", us[1].Nines)
	}
	if CountAbove(us, 0.6) != 1 || CountAbove(us, 0.4) != 2 {
		t.Error("CountAbove wrong")
	}
	if All(&trace.Dataset{}, Options{}).Uptimes != nil {
		t.Error("empty dataset should yield nil")
	}
}

// TestUptimeRatiosDuplicateSamples is the regression test for the
// overcounting bug: a trace carrying duplicate samples for one machine
// in one iteration (collector retry bug, careless merge) used to count
// raw samples in the numerator, inflating the ratio beyond 1. The fixed
// numerator counts distinct iterations answered, so duplicates are
// invisible to the ratio.
func TestUptimeRatiosDuplicateSamples(t *testing.T) {
	b := newBuilder(1, "M1", "M2")
	boot := t0
	for i := 1; i <= 4; i++ {
		b.sample(i, "M1", boot, 0.9, "", time.Time{})
		// M1 answers every iteration twice: 8 raw samples over 4
		// iterations. Pre-fix this yielded Ratio = 8/4 = 2.
		b.sample(i, "M1", boot, 0.9, "", time.Time{})
		if i <= 2 {
			b.sample(i, "M2", boot, 0.9, "", time.Time{})
		}
	}
	us := All(b.d, Options{}).Uptimes
	if len(us) != 2 {
		t.Fatalf("ratios = %d", len(us))
	}
	for _, u := range us {
		if u.Ratio > 1 {
			t.Errorf("machine %s Ratio = %v > 1: duplicate samples overcounted", u.Machine, u.Ratio)
		}
	}
	if us[0].Machine != "M1" || us[0].Ratio != 1 {
		t.Errorf("M1 with duplicates = %+v, want Ratio 1", us[0])
	}
	if us[1].Machine != "M2" || us[1].Ratio != 0.5 {
		t.Errorf("M2 = %+v, want Ratio 0.5", us[1])
	}
}

func TestDetectSessions(t *testing.T) {
	b := newBuilder(1, "M1")
	boot1 := t0
	boot2 := t0.Add(2 * time.Hour)
	b.sample(1, "M1", boot1, 0.9, "", time.Time{})
	b.sample(2, "M1", boot1, 0.9, "", time.Time{})
	b.sample(9, "M1", boot2, 0.9, "", time.Time{}) // reboot detected
	b.sample(10, "M1", boot2, 0.9, "", time.Time{})
	// Both detected sessions last 30 minutes: the uptime their last
	// samples (iterations 2 and 10) report.
	res := All(b.d, Options{})
	if st := res.Sessions; st.Count != 2 {
		t.Fatalf("sessions = %d, want 2", st.Count)
	}
	if got := res.Sessions.Mean; got != 30*time.Minute {
		t.Errorf("session length = %v", got)
	}
	if res.Sessions.StdDev != 0 {
		t.Errorf("session length spread = %v", res.Sessions.StdDev)
	}
	if res.PowerCycles.DetectedSessions != 2 {
		t.Errorf("power-cycle view detected %d sessions", res.PowerCycles.DetectedSessions)
	}
}

func TestSessionsStats(t *testing.T) {
	b := newBuilder(5, "M1", "M2")
	// M1: one ~110-hour session (beyond the 96 h cap).
	boot := t0
	for i := 0; i <= 440; i += 40 {
		b.sample(i+1, "M1", boot, 0.9, "", time.Time{})
	}
	// M2: a 1-hour session.
	boot2 := t0
	for i := 1; i <= 4; i++ {
		b.sample(i, "M2", boot2, 0.9, "", time.Time{})
	}
	st := All(b.d, Options{HistCap: 96 * time.Hour, HistBins: 24}).Sessions
	if st.Count != 2 {
		t.Fatalf("count = %d", st.Count)
	}
	if st.ShortFraction != 0.5 {
		t.Errorf("short fraction = %v, want 0.5", st.ShortFraction)
	}
	if st.ShortUptimeFraction >= 0.05 {
		t.Errorf("short uptime fraction = %v (the long session dominates)", st.ShortUptimeFraction)
	}
	if got := st.Hist.InRangeFraction(); got != 0.5 { // the long session is past the 96 h cap
		t.Errorf("histogram in-range fraction = %v, want 0.5", got)
	}
}

func TestPowerCyclesFromSMART(t *testing.T) {
	b := newBuilder(7, "M1")
	boot := t0
	s1 := b.sample(1, "M1", boot, 0.9, "", time.Time{})
	s1.PowerCycles = 100
	s1.PowerOnHours = 600
	boot2 := t0.Add(24 * time.Hour)
	s2 := b.sample(96+1, "M1", boot2, 0.9, "", time.Time{})
	s2.PowerCycles = 109 // 9 cycles after the first sample (+1 for its boot)
	s2.PowerOnHours = 650
	pc := All(b.d, Options{}).PowerCycles
	if pc.TotalCycles != 10 {
		t.Errorf("cycles = %d, want 10", pc.TotalCycles)
	}
	if pc.AvgPerMachine != 10 {
		t.Errorf("avg per machine = %v", pc.AvgPerMachine)
	}
	if pc.CyclesPerDay < 1.42 || pc.CyclesPerDay > 1.43 { // 10/7
		t.Errorf("cycles/day = %v", pc.CyclesPerDay)
	}
	// Window hours: 650-600 + uptime at first sample (15 m → 0.25 h).
	wantPerCycle := (50 + 0.25) / 10
	if got := pc.UptimePerCycle.Hours(); got < wantPerCycle-0.01 || got > wantPerCycle+0.01 {
		t.Errorf("uptime/cycle = %v h, want %v", got, wantPerCycle)
	}
	// Lifetime: 650/109.
	if got := pc.LifetimePerCycle.Hours(); got < 5.9 || got > 6.0 {
		t.Errorf("lifetime/cycle = %v h, want ≈5.96", got)
	}
	if pc.DetectedSessions != 2 {
		t.Errorf("detected sessions = %d", pc.DetectedSessions)
	}
	if pc.UndetectedRatio != 4 { // 10/2 - 1
		t.Errorf("undetected ratio = %v", pc.UndetectedRatio)
	}
}

func TestWeeklyProfilesFill(t *testing.T) {
	b := newBuilder(7, "M1")
	boot := t0
	for i := 1; i <= 96*7-1; i++ {
		s := b.sample(i, "M1", boot, 0.97, "", time.Time{})
		s.MemLoadPct = 55
		s.SwapLoadPct = 25
	}
	w := All(b.d, Options{}).Weekly
	slot, idle := w.MinCPUIdleSlot()
	if slot < 0 {
		t.Fatal("no populated slot")
	}
	if idle < 96.9 || idle > 97.1 {
		t.Errorf("min idle = %v, want ≈97", idle)
	}
	for i, r := range w.RAMLoadPct.Slots {
		if r.N() > 0 && r.Mean() != 55 {
			t.Errorf("slot %d: ram mean = %v, want 55", i, r.Mean())
		}
	}
	if d := SlotWeekday(0); d != time.Monday {
		t.Errorf("slot 0 weekday = %v", d)
	}
	if d := SlotWeekday(6 * 96); d != time.Sunday {
		t.Errorf("sunday slot weekday = %v", d)
	}
}

func TestEquivalenceExact(t *testing.T) {
	// Two machines with equal perf: one always on and fully idle, one off.
	// Equivalence must be ≈0.5, all of it in the free component.
	b := newBuilder(1, "M1", "M2")
	boot := t0
	for i := 1; i <= 10; i++ {
		b.sample(i, "M1", boot, 1.0, "", time.Time{})
	}
	eq := All(b.d, Options{}).Equivalence
	if eq.FreeRatio < 0.44 || eq.FreeRatio > 0.5 {
		t.Errorf("free ratio = %v, want ≈0.5", eq.FreeRatio)
	}
	if eq.OccupiedRatio != 0 {
		t.Errorf("occupied ratio = %v, want 0", eq.OccupiedRatio)
	}
	if eq.TotalRatio != eq.FreeRatio+eq.OccupiedRatio {
		t.Error("total != sum of parts")
	}
}

func TestEquivalencePerfWeighting(t *testing.T) {
	// A fast machine (index 60) idle and a slow one (index 20) off: the
	// weighted ratio is 60/80 = 0.75; unweighted it is 0.5.
	d := &trace.Dataset{
		Start: t0, End: t0.AddDate(0, 0, 1), Period: 15 * time.Minute,
		Machines: []trace.MachineInfo{
			{ID: "FAST", Lab: "L", IntIndex: 60, FPIndex: 60},
			{ID: "SLOW", Lab: "L", IntIndex: 20, FPIndex: 20},
		},
	}
	boot := t0
	for i := 1; i <= 10; i++ {
		at := t0.Add(time.Duration(i) * 15 * time.Minute)
		up := at.Sub(boot)
		d.Samples = append(d.Samples, trace.Sample{
			Iter: i, Time: at, Machine: "FAST", Lab: "L",
			BootTime: boot, Uptime: up, CPUIdle: up,
		})
		d.Iterations = append(d.Iterations, trace.Iteration{Iter: i, Start: at, Attempted: 2, Responded: 1})
	}
	weighted := All(d, Options{}).Equivalence
	unweighted := All(d, Options{UnweightedEquivalence: true}).Equivalence
	if weighted.TotalRatio < 0.66 || weighted.TotalRatio > 0.75 {
		t.Errorf("weighted = %v, want ≈0.75", weighted.TotalRatio)
	}
	if unweighted.TotalRatio < 0.44 || unweighted.TotalRatio > 0.5 {
		t.Errorf("unweighted = %v, want ≈0.5", unweighted.TotalRatio)
	}
	if weighted.TotalRatio <= unweighted.TotalRatio {
		t.Error("perf weighting did not favour the fast idle machine")
	}
}

func TestEquivalenceEmpty(t *testing.T) {
	eq := All(&trace.Dataset{}, Options{}).Equivalence
	if eq.TotalRatio != 0 {
		t.Error("empty dataset equivalence != 0")
	}
}

func TestFreeMachineHeat(t *testing.T) {
	s := AvailabilitySeries{Points: []AvailabilityPoint{
		{Time: t0.Add(10 * time.Hour), UserFree: 4},                  // Monday 10:00
		{Time: t0.AddDate(0, 0, 7).Add(10 * time.Hour), UserFree: 6}, // next Monday 10:00
		{Time: t0.AddDate(0, 0, 6).Add(3 * time.Hour), UserFree: 1},  // Sunday 03:00
	}}
	heat := FreeMachineHeat(s)
	if len(heat) != 168 {
		t.Fatalf("heat cells = %d", len(heat))
	}
	if heat[10] != 5 {
		t.Errorf("Monday 10h = %v, want 5", heat[10])
	}
	if heat[6*24+3] != 1 {
		t.Errorf("Sunday 03h = %v, want 1", heat[6*24+3])
	}
	if heat[50] != 0 {
		t.Errorf("untouched cell = %v", heat[50])
	}
}

func TestIdlenessWhen(t *testing.T) {
	b := newBuilder(1, "M1")
	boot := t0
	for i := 1; i <= 8; i++ {
		b.sample(i, "M1", boot, 0.999, "", time.Time{})
	}
	w := All(b.d, Options{}).Weekly
	all := w.IdlenessWhen(func(time.Time) bool { return true })
	if all.N() != 7 || all.Mean() < 99.8 {
		t.Errorf("all-hours idleness: %v", all)
	}
	none := w.IdlenessWhen(func(time.Time) bool { return false })
	if none.N() != 0 {
		t.Errorf("empty predicate matched %d intervals", none.N())
	}
	// Samples sit at :15..2:00, intervals close at :30..2:00; a Monday
	// before-1h window keeps the slots of the intervals closing at :30
	// and :45.
	firstHour := w.IdlenessWhen(func(at time.Time) bool { return at.Weekday() == time.Monday && at.Hour() < 1 })
	if firstHour.N() != 2 {
		t.Errorf("windowed idleness intervals = %d, want 2", firstHour.N())
	}
}
