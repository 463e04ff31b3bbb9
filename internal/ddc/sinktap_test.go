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

// TestSinkTapChainObservesEveryCommit is the tap-chain acceptance test:
// with the streaming checker AND two plain taps attached to one sink,
// every committed sample and every iteration record reaches every
// observer exactly once, in attachment order.
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
	sc := AttachCheck(sink, check.Options{}, nil)

	type tapLog struct {
		samples map[string]int // "iter/machine" → times seen
		iters   map[int]int    // iteration → times seen
	}
	newLog := func() *tapLog {
		return &tapLog{samples: map[string]int{}, iters: map[int]int{}}
	}
	logs := []*tapLog{newLog(), newLog()}
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
	// Attachment order: per committed sample the taps fire 0 then 1.
	if len(order)%2 != 0 {
		t.Fatalf("odd observation count %d across two taps", len(order))
	}
	for i := 0; i < len(order); i += 2 {
		if order[i] != 0 || order[i+1] != 1 {
			t.Fatalf("taps fired out of attachment order at observation %d: %v", i, order[i:i+2])
		}
	}
	// The checker composed with the taps must still have seen everything.
	if r := sc.Report(); r.Samples != len(ds.Samples) {
		t.Errorf("checker saw %d samples, want %d", r.Samples, len(ds.Samples))
	}
}

// TestSinkTapDetach verifies detach removes exactly one tap, keeps the
// remaining taps' relative order, and is idempotent.
func TestSinkTapDetach(t *testing.T) {
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

// TestSinkTapEmptyAllocFree guards the disabled path: with no taps
// attached (including after an attach/detach round trip) the commit path
// allocates nothing per probe, same contract as the detached checker.
func TestSinkTapEmptyAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun counts race-detector bookkeeping allocations")
	}
	sink := NewDatasetSink(t0, t0.Add(time.Hour), 15*time.Minute, nil)
	detach := sink.Tap(func(*trace.Sample) {}, nil)
	detach()
	func() {
		sink.mu.Lock()
		defer sink.mu.Unlock()
		sink.d.Samples = make([]trace.Sample, 0, 4096)
	}()

	m := newMachine("M1")
	m.PowerOn(t0)
	report := probe.AppendRender(nil, mustSnapshot(t, m, t0.Add(10*time.Minute)))
	if allocs := testing.AllocsPerRun(200, func() {
		sink.Post(0, "M1", report, nil)
	}); allocs != 0 {
		t.Errorf("tapless sink Post allocates %.1f objects/run, want 0", allocs)
	}
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
