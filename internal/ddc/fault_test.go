package ddc

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestFaultExecutorDeterministic(t *testing.T) {
	run := func() ([]bool, FaultStats) {
		fx := &FaultExecutor{
			Inner:          &fakeExec{up: map[string]bool{"M": true}},
			TransientFailP: 0.3,
			Seed:           9,
		}
		outcomes := make([]bool, 0, 200)
		for i := 0; i < 200; i++ {
			_, err := fx.Exec("M")
			outcomes = append(outcomes, err == nil)
		}
		return outcomes, fx.Stats()
	}
	a, sa := run()
	b, sb := run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d", i)
		}
	}
	if sa != sb {
		t.Errorf("stats diverged: %+v vs %+v", sa, sb)
	}
	if sa.Calls != 200 {
		t.Errorf("calls = %d", sa.Calls)
	}
	// 30% of 200 with a wide tolerance band.
	if sa.Transients < 30 || sa.Transients > 90 {
		t.Errorf("transients = %d, want ~60", sa.Transients)
	}
	fails := 0
	for _, ok := range a {
		if !ok {
			fails++
		}
	}
	if fails != sa.Transients {
		t.Errorf("observed %d failures, injected %d", fails, sa.Transients)
	}
}

func TestFaultExecutorHardDown(t *testing.T) {
	fx := &FaultExecutor{
		Inner:        &fakeExec{up: map[string]bool{"M1": true, "M2": true}},
		DownMachines: map[string]bool{"M2": true},
	}
	if _, err := fx.Exec("M1"); err != nil {
		t.Errorf("healthy machine failed: %v", err)
	}
	if _, err := fx.Exec("M2"); !errors.Is(err, ErrUnreachable) {
		t.Errorf("hard-down machine err = %v", err)
	}
	if st := fx.Stats(); st.DownDenied != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestFaultExecutorLatencySpike(t *testing.T) {
	fx := &FaultExecutor{
		Inner:         &fakeExec{up: map[string]bool{"M": true}},
		LatencySpikeP: 1,
		SpikeLatency:  30 * time.Millisecond,
	}
	start := time.Now()
	if _, err := fx.Exec("M"); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 30*time.Millisecond {
		t.Errorf("spike not injected: took %v", el)
	}
	if st := fx.Stats(); st.Spikes != 1 {
		t.Errorf("stats = %+v", st)
	}

	// A spiking probe under an expired context reports unreachable — the
	// shape a per-probe deadline converts slowness into.
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start = time.Now()
	if _, err := fx.ExecContext(ctx, "M"); !errors.Is(err, ErrUnreachable) {
		t.Errorf("cancelled spike err = %v", err)
	}
	if el := time.Since(start); el > 25*time.Millisecond {
		t.Errorf("cancelled spike slept the full spike: %v", el)
	}
}

// TestFaultExecutorExecAppend: the append path draws the same fault
// stream as Exec, appends the inner report after what dst already holds
// — through the inner executor's own append path when it has one — and
// leaves dst alone on an injected failure.
func TestFaultExecutorExecAppend(t *testing.T) {
	m := newMachine("M1")
	m.PowerOn(t0)
	now := t0.Add(10 * time.Minute)
	inners := map[string]Executor{
		"append inner": &Direct{Source: memSource{m}, Now: func() time.Time { return now }},
		"plain inner":  &fakeExec{up: map[string]bool{"M1": true}},
	}
	for name, inner := range inners {
		viaExec := &FaultExecutor{Inner: inner, TransientFailP: 0.4, Seed: 5}
		viaAppend := &FaultExecutor{Inner: inner, TransientFailP: 0.4, Seed: 5}
		prefix := []byte("earlier report|")
		for i := 0; i < 50; i++ {
			want, werr := viaExec.Exec("M1")
			got, gerr := viaAppend.ExecAppend(prefix, "M1")
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("%s, call %d: Exec err %v, ExecAppend err %v", name, i, werr, gerr)
			}
			if gerr != nil {
				if got != nil || !errors.Is(gerr, ErrUnreachable) {
					t.Fatalf("%s, call %d: injected failure returned %q, %v", name, i, got, gerr)
				}
				continue
			}
			if string(got) != string(prefix)+string(want) {
				t.Fatalf("%s, call %d: ExecAppend = %q, want prefix + %q", name, i, got, want)
			}
		}
		if viaExec.Stats() != viaAppend.Stats() || viaAppend.Stats().Transients == 0 {
			t.Errorf("%s: fault stats diverge or inert: %+v vs %+v", name, viaExec.Stats(), viaAppend.Stats())
		}
	}
}
