package ddc

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"winlab/internal/probe"
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
			_, err := fx.Exec(context.Background(), nil, "M")
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
		Inner:  &fakeExec{up: map[string]bool{"M1": true, "M2": true}},
		DownFn: func(id string) bool { return id == "M2" },
	}
	if _, err := fx.Exec(context.Background(), nil, "M1"); err != nil {
		t.Errorf("healthy machine failed: %v", err)
	}
	if _, err := fx.Exec(context.Background(), nil, "M2"); !errors.Is(err, ErrUnreachable) {
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
	if _, err := fx.Exec(context.Background(), nil, "M"); err != nil {
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
	if _, err := fx.Exec(ctx, nil, "M"); !errors.Is(err, ErrUnreachable) {
		t.Errorf("cancelled spike err = %v", err)
	}
	if el := time.Since(start); el > 25*time.Millisecond {
		t.Errorf("cancelled spike slept the full spike: %v", el)
	}
}

// TestFaultExecutorExecAppend holds every Executor to the one Exec
// contract: the report is appended after what dst already holds, and an
// unreachable machine yields nil with an error wrapping ErrUnreachable,
// leaving dst unchanged. FaultExecutor appends through its inner
// executor; M2 is down for every row (injected for FaultExecutor).
func TestFaultExecutorExecAppend(t *testing.T) {
	now := func() time.Time { return t0.Add(10 * time.Minute) }
	src := pureFake{down: map[string]bool{"M2": true}}
	_, tcp, cleanup := newTCPFixture(t)
	defer cleanup()
	execs := []struct {
		name string
		exec Executor
	}{
		{"Direct", &Direct{Source: src, Now: now}},
		{"PureDirect", &PureDirect{Source: src, Now: now}},
		{"FaultExecutor", &FaultExecutor{
			Inner:  &Direct{Source: pureFake{}, Now: now},
			DownFn: func(id string) bool { return id == "M2" },
		}},
		{"TCPExecutor", tcp},
	}
	const prefix = "earlier report|"
	for _, tc := range execs {
		dst := append(make([]byte, 0, 2048), prefix...)
		got, err := tc.exec.Exec(context.Background(), dst, "M1")
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !strings.HasPrefix(string(got), prefix) {
			t.Fatalf("%s: Exec dropped the dst prefix: %q", tc.name, got)
		}
		if sn, err := probe.NewParser().ParseBytes(got[len(prefix):]); err != nil || sn.ID != "M1" {
			t.Errorf("%s: appended report parses to %q, %v", tc.name, sn.ID, err)
		}

		got, err = tc.exec.Exec(context.Background(), dst, "M2")
		if got != nil || !errors.Is(err, ErrUnreachable) {
			t.Errorf("%s: unreachable machine returned %q, %v", tc.name, got, err)
		}
		if string(dst) != prefix {
			t.Errorf("%s: failed Exec changed dst to %q", tc.name, dst)
		}
	}
}
