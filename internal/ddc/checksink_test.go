package ddc

import (
	"testing"
	"time"

	"winlab/internal/machine"
	"winlab/internal/probe"
	"winlab/internal/sim"
	"winlab/internal/telemetry"
	"winlab/internal/trace"
	"winlab/internal/trace/check"
)

// TestSinkCheckCleanCollection attaches the streaming checker to a real
// sim collection and asserts a healthy run yields a clean report with
// full coverage, and the telemetry counters to match.
func TestSinkCheckCleanCollection(t *testing.T) {
	src := multiSource{ms: map[string]*machine.Machine{}}
	for _, id := range []string{"M1", "M3"} {
		m := newMachine(id)
		m.PowerOn(t0.Add(-time.Hour))
		src.ms[id] = m
	}
	src.ms["M2"] = newMachine("M2") // never powered on: unreachable

	reg := telemetry.NewRegistry()
	eng := sim.New(t0)
	end := t0.Add(46 * time.Minute)
	sink := NewDatasetSink(t0, end, 15*time.Minute, nil)
	sc := AttachCheck(sink, check.Options{}, reg)
	oneShard{
		Cfg: Config{
			Machines:    []string{"M1", "M2", "M3"},
			Period:      15 * time.Minute,
			LatencyOK:   func() time.Duration { return time.Second },
			LatencyFail: func() time.Duration { return 4 * time.Second },
		},
		Exec:        &Direct{Source: src, Now: eng.Now},
		Post:        sink.Post,
		OnIteration: sink.OnIteration,
	}.run(t, eng, t0, end)

	ds, err := sink.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	r := sc.Report()
	if !r.OK() {
		for _, v := range r.Violations {
			t.Errorf("unexpected violation: %s", v)
		}
	}
	if r.Samples != len(ds.Samples) || r.Iterations != len(ds.Iterations) {
		t.Errorf("coverage %d/%d, dataset has %d/%d",
			r.Samples, r.Iterations, len(ds.Samples), len(ds.Iterations))
	}
	if err := sc.Err(); err != nil {
		t.Errorf("Err() = %v", err)
	}
	if got := reg.Counter(MetricSinkChecked).Value(); got != int64(len(ds.Samples)) {
		t.Errorf("%s = %d, want %d", MetricSinkChecked, got, len(ds.Samples))
	}
	if got := reg.Counter(MetricSinkViolations).Value(); got != 0 {
		t.Errorf("%s = %d, want 0", MetricSinkViolations, got)
	}
}

// TestSinkCheckFlagsCorruptReports feeds the sink a report whose
// per-boot uptime counter regresses and an iteration record whose
// response count cannot reconcile; the attached checker must flag both
// at commit time and bump the violation counter.
func TestSinkCheckFlagsCorruptReports(t *testing.T) {
	reg := telemetry.NewRegistry()
	sink := NewDatasetSink(t0, t0.Add(time.Hour), 15*time.Minute, nil)
	sc := AttachCheck(sink, check.Options{}, reg)

	boot := t0.Add(-time.Hour)
	sn := machine.Snapshot{
		ID: "M1", Lab: "L01", Time: t0.Add(5 * time.Second),
		CPUModel: "P4", CPUGHz: 2.4, RAMMB: 512, DiskGB: 74.5,
		BootTime: boot, Uptime: time.Hour, CPUIdle: 50 * time.Minute,
		FreeDiskGB: 30, PowerCycles: 4, PowerOnHours: 100,
		SentBytes: 1000, RecvBytes: 2000,
	}
	sink.Post(0, "M1", probe.AppendRender(nil, sn), nil)
	sink.OnIteration(IterationInfo{Iter: 0, Start: t0, End: t0.Add(10 * time.Second), Attempted: 1, Responded: 1})

	// Same boot, but uptime went backwards.
	sn.Time = t0.Add(15*time.Minute + 5*time.Second)
	sn.Uptime = 30 * time.Minute
	sink.Post(1, "M1", probe.AppendRender(nil, sn), nil)
	// And an iteration record claiming three responses for one sample.
	sink.OnIteration(IterationInfo{Iter: 1, Start: t0.Add(15 * time.Minute), End: t0.Add(16 * time.Minute), Attempted: 3, Responded: 3})

	r := sc.Report()
	if r.OK() {
		t.Fatal("corrupt commits not flagged")
	}
	kinds := map[check.Kind]bool{}
	for _, v := range r.Violations {
		kinds[v.Kind] = true
	}
	if !kinds[check.KindCounterRegression] {
		t.Errorf("no counter-regression violation; got %v", r.Violations)
	}
	if !kinds[check.KindResponseAccounting] {
		t.Errorf("no response-accounting violation; got %v", r.Violations)
	}
	if got := reg.Counter(MetricSinkViolations).Value(); got != int64(r.Total) {
		t.Errorf("%s = %d, want %d", MetricSinkViolations, got, r.Total)
	}
	if err := sc.Err(); err == nil {
		t.Error("Err() = nil on violating stream")
	}

	// Detach: further commits are no longer validated.
	sc.Detach()
	before := sc.Report().Total
	sn.Time = t0.Add(30*time.Minute + 5*time.Second)
	sn.Uptime = time.Minute // would be another regression
	sink.Post(2, "M1", probe.AppendRender(nil, sn), nil)
	if got := sc.Report().Total; got != before {
		t.Errorf("violations grew to %d after Detach (was %d)", got, before)
	}
}

// TestSinkCheckNilSafety pins the nil contract: attaching to a nil sink
// returns a nil handle, and every method on a nil handle is a safe
// no-op answering like a clean checker.
func TestSinkCheckNilSafety(t *testing.T) {
	sc := AttachCheck(nil, check.Options{}, nil)
	if sc != nil {
		t.Fatalf("AttachCheck(nil) = %v", sc)
	}
	sc.Detach()
	if !sc.Report().OK() {
		t.Error("nil Report() not OK")
	}
	if err := sc.Err(); err != nil {
		t.Errorf("nil Err() = %v", err)
	}
}

// TestSinkCheckDetachedAllocFree is the acceptance guard for the
// disabled path: a sink without an attached checker commits samples
// with zero allocations per probe (the one extra nil check must not
// cost an allocation), matching the TestNilTelemetryAllocFree contract
// for the rest of the probe path.
func TestSinkCheckDetachedAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun counts race-detector bookkeeping allocations")
	}
	sink := NewDatasetSink(t0, t0.Add(time.Hour), 15*time.Minute, nil)
	// Pre-grow the sample slice so append growth does not pollute the
	// measurement (growth is amortised-free in steady state).
	func() {
		sink.mu.Lock()
		defer sink.mu.Unlock()
		sink.d.Samples = make([]trace.Sample, 0, 4096)
	}()

	m := newMachine("M1")
	m.PowerOn(t0)
	report := probe.AppendRender(nil, mustSnapshot(t, m, t0.Add(10*time.Minute)))
	iter := 0
	if allocs := testing.AllocsPerRun(200, func() {
		sink.Post(iter, "M1", report, nil)
	}); allocs != 0 {
		t.Errorf("detached sink Post allocates %.1f objects/run, want 0", allocs)
	}
}

func mustSnapshot(t *testing.T, m *machine.Machine, at time.Time) machine.Snapshot {
	t.Helper()
	sn, ok := m.Snapshot(at)
	if !ok {
		t.Fatal("machine unreachable")
	}
	return sn
}
