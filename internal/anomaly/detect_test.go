package anomaly

import (
	"testing"
	"time"

	"winlab/internal/telemetry"
	"winlab/internal/trace"
)

// testStart is a Monday 00:00, matching the experiment default.
var testStart = time.Date(2003, 10, 6, 0, 0, 0, 0, time.UTC)

const testPeriod = 15 * time.Minute

// fleet8 is one 8-machine lab.
func fleet8() []trace.MachineInfo {
	out := make([]trace.MachineInfo, 8)
	for i := range out {
		out[i] = trace.MachineInfo{ID: machID(i), Lab: "L01", DiskGB: 74.5}
	}
	return out
}

func machID(i int) string { return "L01-M0" + string(rune('1'+i)) }

func iterTime(iter int) time.Time { return testStart.Add(time.Duration(iter) * testPeriod) }

// healthySample builds an unremarkable sample for machine id at iter:
// booted this morning, counters advancing at wall rate.
func healthySample(id string, iter int) trace.Sample {
	t := iterTime(iter)
	boot := testStart.Add(-time.Hour) // one stable boot across the whole feed
	up := t.Sub(boot)
	return trace.Sample{
		Iter: iter, Time: t, Machine: id, Lab: "L01",
		BootTime: boot, Uptime: up, CPUIdle: up / 2,
		MemLoadPct: 50, SwapLoadPct: 40, DiskGB: 74.5, FreeDiskGB: 50,
		PowerCycles: 1000, PowerOnHours: 5000 + int64(up/time.Hour),
	}
}

func eventsOf(d *Detectors, kind Kind) []Event {
	var out []Event
	for _, e := range d.Ring().Snapshot() {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// TestDetectSensorStaleness: a machine that answers probes with
// bit-frozen Uptime and CPUIdle for StaleConfirm consecutive samples is
// flagged exactly once; a machine whose counters advance is not.
func TestDetectSensorStaleness(t *testing.T) {
	d := New(DefaultConfig(), nil)
	d.SetMachines(fleet8())

	frozen := healthySample("L01-M01", 40)
	for iter := 40; iter < 48; iter++ {
		s := frozen
		s.Iter = iter
		s.Time = iterTime(iter)
		d.Sample(&s) // uptime/idle never advance
		h := healthySample("L01-M02", iter)
		d.Sample(&h)
	}
	got := eventsOf(d, KindSensorStaleness)
	if len(got) != 1 {
		t.Fatalf("staleness events = %d, want exactly 1 (no re-emission): %+v", len(got), got)
	}
	e := got[0]
	if e.Machine != "L01-M01" || e.Lab != "L01" {
		t.Errorf("event attribution %q/%q", e.Machine, e.Lab)
	}
	if e.FirstIter != 41 || e.LastIter != 43 {
		t.Errorf("evidence window [%d,%d], want [41,43]", e.FirstIter, e.LastIter)
	}
}

// TestDetectSMARTRegressionAndJump: a power-cycle regression and a jump
// both emit point events; the cooldown mutes the immediate aftermath.
func TestDetectSMARTRegressionAndJump(t *testing.T) {
	d := New(DefaultConfig(), nil)
	d.SetMachines(fleet8())

	for iter := 10; iter < 14; iter++ {
		s := healthySample("L01-M01", iter)
		if iter >= 12 {
			s.PowerCycles -= 50 // counter snapped backwards
		}
		d.Sample(&s)

		j := healthySample("L01-M02", iter)
		if iter >= 12 {
			j.PowerCycles += 500
		}
		d.Sample(&j)
	}
	reg := eventsOf(d, KindSMARTAnomaly)
	if len(reg) != 2 {
		t.Fatalf("smart events = %d, want 2 (one per machine, cooldown mutes repeats): %+v", len(reg), reg)
	}
	byMachine := map[string]Event{}
	for _, e := range reg {
		byMachine[e.Machine] = e
	}
	if e := byMachine["L01-M01"]; e.Score != 50 {
		t.Errorf("regression score = %v, want 50", e.Score)
	}
	if e := byMachine["L01-M02"]; e.Score != 500 {
		t.Errorf("jump score = %v, want 500", e.Score)
	}
}

// TestDetectRebootStorm: three boot-time changes within the window flag
// the machine; a single reboot does not.
func TestDetectRebootStorm(t *testing.T) {
	d := New(DefaultConfig(), nil)
	d.SetMachines(fleet8())

	for iter := 20; iter < 28; iter++ {
		s := healthySample("L01-M01", iter)
		s.BootTime = iterTime(iter).Add(-90 * time.Second) // fresh boot every probe
		s.Uptime = 90 * time.Second
		d.Sample(&s)

		once := healthySample("L01-M02", iter)
		if iter >= 24 {
			once.BootTime = iterTime(24) // exactly one reboot
			once.Uptime = once.Time.Sub(once.BootTime)
		}
		d.Sample(&once)
	}
	storms := eventsOf(d, KindRebootStorm)
	if len(storms) != 1 {
		t.Fatalf("storm events = %d, want 1: %+v", len(storms), storms)
	}
	if storms[0].Machine != "L01-M01" {
		t.Errorf("storm flagged %q, want L01-M01", storms[0].Machine)
	}
}

// TestDetectUsageDrift: after the baseline warmup a sustained memory
// regime shift emits once; the out-of-regime samples must not feed the
// baseline (the event's recorded baseline stays at the pre-shift mean).
func TestDetectUsageDrift(t *testing.T) {
	d := New(DefaultConfig(), nil)
	d.SetMachines(fleet8())
	cfg := DefaultConfig()

	iter := 0
	for ; iter < cfg.DriftWarmupSamples+2; iter++ {
		s := healthySample("L01-M01", iter)
		d.Sample(&s)
	}
	for n := 0; n < 8; n, iter = n+1, iter+1 {
		s := healthySample("L01-M01", iter)
		s.MemLoadPct = 97
		d.Sample(&s)
	}
	drifts := eventsOf(d, KindUsageDrift)
	if len(drifts) != 1 {
		t.Fatalf("drift events = %d, want exactly 1: %+v", len(drifts), drifts)
	}
	// (97-50)/max(sd,4) with sd→0 floors at 4: z = 11.75.
	if z := drifts[0].Score; z < 11 || z > 12.5 {
		t.Errorf("drift z = %v, want ≈ 11.75 against the unpolluted baseline", z)
	}
}

// TestDetectAvailabilityCollapse drives the per-lab iteration path: warm
// the seasonal bins and the recent level with three weekdays of full
// availability at a fixed slot, then blackout the lab. The collapse must
// confirm after CollapseConfirm low iterations and emit once; telemetry
// counters must agree with the ring.
func TestDetectAvailabilityCollapse(t *testing.T) {
	reg := telemetry.NewRegistry()
	d := New(DefaultConfig(), reg)
	d.SetMachines(fleet8())

	iterAt := func(day, slot int) (int, time.Time) {
		at := testStart.AddDate(0, 0, day).Add(12*time.Hour + time.Duration(slot)*testPeriod)
		return int(at.Sub(testStart) / testPeriod), at
	}
	feed := func(day, slot, responding int) {
		iter, at := iterAt(day, slot)
		for i := 0; i < responding; i++ {
			s := healthySample(machID(i), iter)
			d.Sample(&s)
		}
		d.Iteration(trace.Iteration{Iter: iter, Start: at, Attempted: 8, Responded: responding})
	}
	// Monday–Wednesday noon: everything up. Each (day-class, slot) bin
	// accumulates 3 observations — exactly the warmup.
	for day := 0; day < 3; day++ {
		for slot := 0; slot < 4; slot++ {
			feed(day, slot, 8)
		}
	}
	// Thursday: the lab vanishes.
	for slot := 0; slot < 4; slot++ {
		feed(3, slot, 0)
	}
	got := eventsOf(d, KindAvailabilityCollapse)
	if len(got) != 1 {
		t.Fatalf("collapse events = %d, want exactly 1: %+v", len(got), got)
	}
	e := got[0]
	firstLow, _ := iterAt(3, 0)
	confirmAt, _ := iterAt(3, 1)
	if e.Lab != "L01" || e.Machine != "" {
		t.Errorf("attribution machine=%q lab=%q, want lab-scoped L01", e.Machine, e.Lab)
	}
	if e.FirstIter != firstLow || e.LastIter != confirmAt {
		t.Errorf("evidence window [%d,%d], want [%d,%d]", e.FirstIter, e.LastIter, firstLow, confirmAt)
	}
	if e.Severity != SeverityCritical {
		t.Errorf("severity %q, want critical for a blackout", e.Severity)
	}

	// All three surfaces agree: ring total, per-kind counter, aggregate.
	if got := reg.Counter(MetricEventsFor(KindAvailabilityCollapse)).Value(); got != 1 {
		t.Errorf("per-kind counter = %d, want 1", got)
	}
	if got, want := reg.Counter(MetricEvents).Value(), int64(d.Ring().Total()); got != want {
		t.Errorf("%s = %d, ring total %d", MetricEvents, got, want)
	}
	if got := reg.Gauge(MetricActive).Value(); got != 1 {
		t.Errorf("active gauge = %d, want 1 while the collapse is ongoing", got)
	}
	// Friday: everything returns; the condition clears.
	feed(4, 0, 8)
	if got := reg.Gauge(MetricActive).Value(); got != 0 {
		t.Errorf("active gauge = %d after recovery, want 0", got)
	}
	if got := eventsOf(d, KindAvailabilityCollapse); len(got) != 1 {
		t.Errorf("recovery emitted extra events: %+v", got)
	}
}

// TestDetectCollapseGateSuppressesScheduledDrop: a drop at a slot whose
// seasonal norm is itself low (the nightly closing sweep) must not
// alert, no matter how sharp the fall from the recent level is.
func TestDetectCollapseGateSuppressesScheduledDrop(t *testing.T) {
	d := New(DefaultConfig(), nil)
	d.SetMachines(fleet8())

	feed := func(day, slot, responding int) {
		at := testStart.AddDate(0, 0, day).Add(4*time.Hour + time.Duration(slot)*testPeriod)
		iter := int(at.Sub(testStart) / testPeriod)
		for i := 0; i < responding; i++ {
			s := healthySample(machID(i), iter)
			d.Sample(&s)
		}
		d.Iteration(trace.Iteration{Iter: iter, Start: at, Attempted: 8, Responded: responding})
	}
	// Every weekday: 4:00 high (pre-sweep), 4:15 onwards near-empty —
	// the schedule, learned as such.
	for day := 0; day < 5; day++ {
		feed(day, 0, 8)
		feed(day, 1, 1)
		feed(day, 2, 1)
	}
	if got := eventsOf(d, KindAvailabilityCollapse); len(got) != 0 {
		t.Fatalf("scheduled nightly drop alerted: %+v", got)
	}
}

// TestDetectCollapseFreezeBounded: a lab that steps down to a sustained
// lower regime pages once, but the baselines must not stay frozen at the
// pre-drop level forever — past CollapseMaxFreezeIters they re-adapt, the
// new level becomes the norm, and the condition clears. Unbounded freeze
// (the pre-fix behaviour, kept under a negative setting) leaves the
// collapse latched for the rest of the trace.
func TestDetectCollapseFreezeBounded(t *testing.T) {
	run := func(maxFreeze int) *Detectors {
		cfg := DefaultConfig()
		cfg.CollapseMaxFreezeIters = maxFreeze
		d := New(cfg, nil)
		d.SetMachines(fleet8())
		feed := func(day, slot, responding int) {
			at := testStart.AddDate(0, 0, day).Add(12*time.Hour + time.Duration(slot)*testPeriod)
			iter := int(at.Sub(testStart) / testPeriod)
			for i := 0; i < responding; i++ {
				s := healthySample(machID(i), iter)
				d.Sample(&s)
			}
			d.Iteration(trace.Iteration{Iter: iter, Start: at, Attempted: 8, Responded: responding})
		}
		// Monday–Wednesday noon: full house (warms every noon bin).
		for day := 0; day < 3; day++ {
			for slot := 0; slot < 4; slot++ {
				feed(day, slot, 8)
			}
		}
		// Thursday onwards (weekdays only): the lab settles at 2/8 — a
		// regime shift, not an outage. It never recovers.
		for _, day := range []int{3, 4, 7, 8, 9} {
			for slot := 0; slot < 4; slot++ {
				feed(day, slot, 2)
			}
		}
		return d
	}

	d := run(4) // freeze bound of 4 iterations keeps the test feed short
	if got := eventsOf(d, KindAvailabilityCollapse); len(got) != 1 {
		t.Fatalf("bounded freeze: collapse events = %d, want exactly 1 (page on the step, then adapt): %+v", len(got), got)
	}
	if lab := d.labs["L01"]; lab.collapseActive {
		t.Error("bounded freeze: collapse still latched after the baseline re-adapted to the new regime")
	}

	// The legacy unbounded behaviour stays reachable for comparison runs:
	// the same feed leaves the condition latched forever.
	d = run(-1)
	if lab := d.labs["L01"]; !lab.collapseActive {
		t.Error("unbounded freeze: expected the collapse to stay latched (pre-fix behaviour)")
	}
}

// TestNilDetectors: every entry point must be a no-op on nil, so a
// disabled detector wires through untouched.
func TestNilDetectors(t *testing.T) {
	var d *Detectors
	s := healthySample("L01-M01", 0)
	d.Sample(&s)
	d.Iteration(trace.Iteration{})
	d.SetMachines(fleet8())
	if d.Ring() != nil {
		t.Error("nil detectors should have a nil ring")
	}
	var r *Ring
	r.Add(Event{})
	r.SetWriter(nil)
	if r.Total() != 0 || r.Buffered() != 0 || r.Snapshot() != nil || r.WriteErr() != nil {
		t.Error("nil ring accessors must return zero values")
	}
}
