package ddc

import (
	"fmt"
	"testing"
	"time"

	"winlab/internal/anomaly"
	"winlab/internal/machine"
	"winlab/internal/probe"
	"winlab/internal/sim"
	"winlab/internal/trace"
	"winlab/internal/trace/check"
)

// TestSinkCheckCleanCollection is live validation as DatasetSink.Tap
// documents it: a check.Stream tapped into a real sim collection sees
// every commit and reports a healthy run clean.
func TestSinkCheckCleanCollection(t *testing.T) {
	src := multiSource{ms: map[string]*machine.Machine{}}
	for _, id := range []string{"M1", "M3"} {
		m := newMachine(id)
		m.PowerOn(t0.Add(-time.Hour))
		src.ms[id] = m
	}
	src.ms["M2"] = newMachine("M2") // never powered on: unreachable

	eng := sim.New(t0)
	end := t0.Add(46 * time.Minute)
	sink := NewDatasetSink(t0, end, 15*time.Minute, nil)
	st := check.NewStream(t0, end, 15*time.Minute, check.Options{})
	sink.Tap(func(s *trace.Sample) { st.Sample(s) }, func(it trace.Iteration) { st.Iteration(it) })
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
	r := st.Report()
	for _, v := range r.Violations {
		t.Errorf("unexpected violation: %s", v)
	}
	if len(ds.Samples) == 0 || r.Samples != len(ds.Samples) || r.Iterations != len(ds.Iterations) {
		t.Errorf("coverage %d/%d, dataset has %d/%d",
			r.Samples, r.Iterations, len(ds.Samples), len(ds.Iterations))
	}
}

// TestSinkCheckFlagsCorruptReports feeds a tapped check.Stream a report
// whose per-boot uptime counter regresses and an iteration record whose
// response count cannot reconcile; the stream must flag both at commit
// time.
func TestSinkCheckFlagsCorruptReports(t *testing.T) {
	sink := NewDatasetSink(t0, t0.Add(time.Hour), 15*time.Minute, nil)
	st := check.NewStream(t0, t0.Add(time.Hour), 15*time.Minute, check.Options{})
	sink.Tap(func(s *trace.Sample) { st.Sample(s) }, func(it trace.Iteration) { st.Iteration(it) })

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
	if r := st.Report(); !r.OK() {
		t.Fatalf("clean first iteration flagged: %v", r.Violations)
	}

	// Same boot, but uptime went backwards.
	sn.Time = t0.Add(15*time.Minute + 5*time.Second)
	sn.Uptime = 30 * time.Minute
	sink.Post(1, "M1", probe.AppendRender(nil, sn), nil)
	// And an iteration record claiming three responses for one sample.
	sink.OnIteration(IterationInfo{Iter: 1, Start: t0.Add(15 * time.Minute), End: t0.Add(16 * time.Minute), Attempted: 3, Responded: 3})

	kinds := map[check.Kind]bool{}
	for _, v := range st.Report().Violations {
		kinds[v.Kind] = true
	}
	if !kinds[check.KindCounterRegression] || !kinds[check.KindResponseAccounting] {
		t.Errorf("want counter-regression and response-accounting violations, got %v", st.Report().Violations)
	}
}

// TestSinkTapChainObservesEveryCommit is the tap-chain acceptance test:
// with three taps attached to one sink, every committed sample and every
// iteration record reaches every observer exactly once, in attachment
// order.
func TestSinkTapChainObservesEveryCommit(t *testing.T) {
	src := multiSource{ms: map[string]*machine.Machine{}}
	for _, id := range []string{"M1", "M2", "M3"} {
		m := newMachine(id)
		m.PowerOn(t0.Add(-time.Hour))
		src.ms[id] = m
	}

	eng := sim.New(t0)
	end := t0.Add(61 * time.Minute)
	sink := NewDatasetSink(t0, end, 15*time.Minute, nil)

	type tapLog struct {
		samples map[string]int // "iter/machine" → times seen
		iters   map[int]int    // iteration → times seen
	}
	newLog := func() *tapLog {
		return &tapLog{samples: map[string]int{}, iters: map[int]int{}}
	}
	logs := []*tapLog{newLog(), newLog(), newLog()}
	var order []int // tap index per sample observation, in call order
	for i, lg := range logs {
		i, lg := i, lg
		sink.Tap(func(s *trace.Sample) {
			lg.samples[fmt.Sprintf("%d/%s", s.Iter, s.Machine)]++
			order = append(order, i)
		}, func(it trace.Iteration) {
			lg.iters[it.Iter]++
		})
	}

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
	if len(ds.Samples) == 0 || len(ds.Iterations) == 0 {
		t.Fatalf("degenerate collection: %d samples, %d iterations", len(ds.Samples), len(ds.Iterations))
	}
	for ti, lg := range logs {
		if len(lg.samples) != len(ds.Samples) {
			t.Errorf("tap %d saw %d distinct samples, dataset has %d", ti, len(lg.samples), len(ds.Samples))
		}
		for key, n := range lg.samples {
			if n != 1 {
				t.Errorf("tap %d saw sample %s %d times, want exactly once", ti, key, n)
			}
		}
		if len(lg.iters) != len(ds.Iterations) {
			t.Errorf("tap %d saw %d iterations, dataset has %d", ti, len(lg.iters), len(ds.Iterations))
		}
		for it, n := range lg.iters {
			if n != 1 {
				t.Errorf("tap %d saw iteration %d %d times, want exactly once", ti, it, n)
			}
		}
	}
	// Attachment order: per committed sample the taps fire 0, 1, 2.
	if len(order) != len(logs)*len(ds.Samples) {
		t.Fatalf("%d observations across %d taps, want %d", len(order), len(logs), len(logs)*len(ds.Samples))
	}
	for i, tap := range order {
		if tap != i%len(logs) {
			t.Fatalf("taps fired out of attachment order at observation %d: %v", i, order[i-i%len(logs):i+1])
		}
	}
}

// TestSinkTapDetach verifies detach removes exactly one tap, keeps the
// remaining taps' relative order, and is idempotent; tapping a nil sink
// is a no-op.
func TestSinkTapDetach(t *testing.T) {
	var none *DatasetSink
	none.Tap(func(*trace.Sample) {}, nil)()

	sink := NewDatasetSink(t0, t0.Add(time.Hour), 15*time.Minute, nil)
	m := newMachine("M1")
	m.PowerOn(t0)
	report := probe.AppendRender(nil, mustSnapshot(t, m, t0.Add(10*time.Minute)))

	var calls []string
	tap := func(name string) func(*trace.Sample) {
		return func(*trace.Sample) { calls = append(calls, name) }
	}
	detachA := sink.Tap(tap("A"), nil)
	sink.Tap(tap("B"), nil)
	sink.Tap(tap("C"), nil)

	sink.Post(0, "M1", report, nil)
	if got := fmt.Sprint(calls); got != "[A B C]" {
		t.Fatalf("initial call order %s, want [A B C]", got)
	}

	calls = nil
	detachA()
	detachA() // idempotent
	sink.Post(1, "M1", report, nil)
	if got := fmt.Sprint(calls); got != "[B C]" {
		t.Fatalf("after detach call order %s, want [B C]", got)
	}
}

// TestSinkTapEmptyAllocFree guards the tapless commit path: a sink that
// never had a tap commits a sample without allocating, matching the
// TestNilTelemetryAllocFree contract for the rest of the probe path.
func TestSinkTapEmptyAllocFree(t *testing.T) {
	assertPostAllocFree(t, NewDatasetSink(t0, t0.Add(time.Hour), 15*time.Minute, nil))
}

// TestSinkCheckDetachedAllocFree: once a checker's tap is detached the
// sink is back on the tapless path, and a commit allocates nothing.
func TestSinkCheckDetachedAllocFree(t *testing.T) {
	sink := NewDatasetSink(t0, t0.Add(time.Hour), 15*time.Minute, nil)
	sink.Tap(func(*trace.Sample) {}, func(trace.Iteration) {})()
	assertPostAllocFree(t, sink)
}

func assertPostAllocFree(t *testing.T, sink *DatasetSink) {
	t.Helper()
	if raceEnabled {
		t.Skip("AllocsPerRun counts race-detector bookkeeping allocations")
	}
	m := newMachine("M1")
	m.PowerOn(t0)
	report := probe.AppendRender(nil, mustSnapshot(t, m, t0.Add(10*time.Minute)))
	// Pre-grow the sample slice so append growth does not pollute the
	// measurement (growth is amortised-free in steady state).
	func() {
		sink.mu.Lock()
		defer sink.mu.Unlock()
		sink.d.Samples = make([]trace.Sample, 0, 4096)
	}()
	if allocs := testing.AllocsPerRun(200, func() {
		sink.Post(0, "M1", report, nil)
	}); allocs != 0 {
		t.Errorf("sink Post allocates %.1f objects/run, want 0", allocs)
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

// BenchmarkSinkCommitWithDetectors measures the probe commit path with
// the full streaming-detector suite tapped in — the steady-state cost a
// live deployment pays for online detection on top of the tapless
// zero-alloc commit (TestSinkTapEmptyAllocFree pins the baseline).
func BenchmarkSinkCommitWithDetectors(b *testing.B) {
	infos := []trace.MachineInfo{{ID: "M1", Lab: "L01"}}
	sink := NewDatasetSink(t0, t0.Add(1000*time.Hour), 15*time.Minute, infos)
	det := anomaly.New(anomaly.DefaultConfig(), nil)
	det.SetMachines(infos)
	sink.Tap(det.Sample, det.Iteration)

	m := newMachine("M1")
	m.PowerOn(t0)
	sn, ok := m.Snapshot(t0.Add(10 * time.Minute))
	if !ok {
		b.Fatal("machine unreachable")
	}
	report := probe.AppendRender(nil, sn)
	func() {
		sink.mu.Lock()
		defer sink.mu.Unlock()
		sink.d.Samples = make([]trace.Sample, 0, b.N+1)
	}()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink.Post(i, "M1", report, nil)
	}
}
