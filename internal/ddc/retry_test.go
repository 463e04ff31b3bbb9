package ddc

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"winlab/internal/rng"
)

func TestRetryPolicyBackoff(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, BaseBackoff: 10 * time.Millisecond, MaxBackoff: 40 * time.Millisecond}
	want := []time.Duration{10, 20, 40, 40, 40}
	for i, w := range want {
		if got := p.backoff(i, nil); got != w*time.Millisecond {
			t.Errorf("backoff(%d) = %v, want %v", i, got, w*time.Millisecond)
		}
	}
	// Defaults when unset.
	d := RetryPolicy{MaxAttempts: 2}
	if got := d.backoff(0, nil); got != 50*time.Millisecond {
		t.Errorf("default base backoff = %v", got)
	}
	// Deep retries must not overflow the shift.
	if got := p.backoff(200, nil); got != 40*time.Millisecond {
		t.Errorf("deep backoff = %v, want cap", got)
	}
}

func TestRetryPolicyJitterDeterministicAndBounded(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 3, BaseBackoff: 100 * time.Millisecond, MaxBackoff: time.Second, Jitter: 0.5}
	a, b := rng.Derive(7, "j"), rng.Derive(7, "j")
	for i := 0; i < 50; i++ {
		da, db := p.backoff(i%3, a), p.backoff(i%3, b)
		if da != db {
			t.Fatalf("jittered backoff diverged at draw %d: %v vs %v", i, da, db)
		}
		base := p.backoff(i%3, nil)
		lo := time.Duration(float64(base) * 0.5)
		hi := time.Duration(float64(base) * 1.5)
		if da < lo || da > hi {
			t.Errorf("jittered backoff %v outside [%v, %v]", da, lo, hi)
		}
	}
}

// TestRetriesRecoverTransientFailures is the deterministic fault-injection
// acceptance test: with seeded 20% transient probe failures, the
// retries-enabled collector gathers strictly more samples than the
// paper-faithful single-attempt baseline.
func TestRetriesRecoverTransientFailures(t *testing.T) {
	machines := []string{"M1", "M2", "M3", "M4"}
	up := map[string]bool{"M1": true, "M2": true, "M3": true, "M4": true}
	const iters = 25 // 100 machine-iterations
	run := func(retry RetryPolicy) Stats {
		fx := &FaultExecutor{
			Inner:          &fakeExec{up: up},
			TransientFailP: 0.2,
			Seed:           42,
		}
		st, err := (&WallCollector{
			Cfg:   Config{Machines: machines, Period: time.Millisecond},
			Exec:  fx,
			Retry: retry,
		}).Run(context.Background(), iters)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	withRetry := RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Microsecond, Jitter: 0.5, Seed: 1}

	plain := run(RetryPolicy{})
	retried := run(withRetry)
	if plain.Samples >= len(machines)*iters {
		t.Fatalf("fault injection inactive: baseline %+v", plain)
	}
	if plain.Retries != 0 || plain.Attempts != len(machines)*iters {
		t.Errorf("baseline retried: %+v", plain)
	}
	if retried.Samples <= plain.Samples {
		t.Errorf("retries did not help: %d samples vs baseline %d", retried.Samples, plain.Samples)
	}
	if retried.Retries == 0 || retried.Attempts <= len(machines)*iters {
		t.Errorf("retry accounting: %+v", retried)
	}
	// The whole injection + backoff schedule is seeded: re-running is
	// bit-identical.
	again := run(withRetry)
	if again.Samples != retried.Samples || again.Attempts != retried.Attempts || again.Retries != retried.Retries {
		t.Errorf("seeded run not reproducible: %+v vs %+v", again, retried)
	}
}

// TestBreakerCapsHardDownAttempts checks the circuit breaker's whole point:
// a machine that is hard-down stops consuming a full retry budget every
// iteration, while healthy machines are unaffected. Split across two
// collectors, the way ddcd shards a fleet, SumShardStats folds the two
// runs back into the one-collector Stats, per-machine health included.
func TestBreakerCapsHardDownAttempts(t *testing.T) {
	const iters = 20
	var breakerErrs int
	run := func(br BreakerPolicy, machines ...string) Stats {
		fx := &FaultExecutor{
			Inner:  &fakeExec{up: map[string]bool{"M1": true}},
			DownFn: func(id string) bool { return id == "M2" },
		}
		breakerErrs = 0
		st, err := (&WallCollector{
			Cfg:     Config{Machines: machines, Period: time.Millisecond},
			Exec:    fx,
			Retry:   RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Microsecond},
			Breaker: br,
			Post: func(iter int, id string, out []byte, err error) {
				if errors.Is(err, ErrBreakerOpen) {
					breakerErrs++
				}
			},
		}).Run(context.Background(), iters)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	flat := run(BreakerPolicy{}, "M1", "M2")
	if got := flat.Machines["M2"].Attempts; got != iters*3 {
		t.Fatalf("no-breaker attempts against M2 = %d, want %d", got, iters*3)
	}

	br := BreakerPolicy{FailThreshold: 2, ProbeEvery: 4}
	st := run(br, "M1", "M2")
	// Probed at iterations 0 and 1 (opens after the 2nd consecutive
	// failure), then once every 4: 5, 9, 13, 17 — six probed iterations.
	m2 := st.Machines["M2"]
	if m2.Attempts != 6*3 {
		t.Errorf("breaker attempts against M2 = %d, want 18", m2.Attempts)
	}
	if m2.Attempts >= flat.Machines["M2"].Attempts {
		t.Errorf("breaker did not cap attempts: %d vs %d", m2.Attempts, flat.Machines["M2"].Attempts)
	}
	if !m2.BreakerOpen || m2.ConsecFails != 6 || m2.Failures != 6 {
		t.Errorf("M2 health = %+v", m2)
	}
	if st.BreakerOpens != 1 || st.BreakerSkipped != iters-6 {
		t.Errorf("breaker stats: opens=%d skipped=%d", st.BreakerOpens, st.BreakerSkipped)
	}
	if breakerErrs != iters-6 {
		t.Errorf("post-collect saw %d breaker skips, want %d", breakerErrs, iters-6)
	}
	// The healthy machine is untouched by M2's breaker.
	if m1 := st.Machines["M1"]; m1.Attempts != iters || m1.Failures != 0 || m1.BreakerOpen {
		t.Errorf("M1 health = %+v", m1)
	}
	if st.Samples != iters {
		t.Errorf("samples = %d, want %d (M1 every iteration)", st.Samples, iters)
	}
	if got := SumShardStats([]Stats{run(br, "M1"), run(br, "M2")}); !reflect.DeepEqual(got, st) {
		t.Errorf("SumShardStats of split run != one run:\nsum %+v\none %+v", got, st)
	}
}

// recoveringExec fails its first n probes, then succeeds forever.
type recoveringExec struct{ remaining int }

func (r *recoveringExec) Exec(_ context.Context, dst []byte, id string) ([]byte, error) {
	if r.remaining > 0 {
		r.remaining--
		return nil, ErrUnreachable
	}
	return append(dst, "data:"+id...), nil
}

func TestBreakerClosesOnRecovery(t *testing.T) {
	st, err := (&WallCollector{
		Cfg:     Config{Machines: []string{"M1"}, Period: time.Millisecond},
		Exec:    &recoveringExec{remaining: 4},
		Breaker: BreakerPolicy{FailThreshold: 2, ProbeEvery: 3},
	}).Run(context.Background(), 14)
	if err != nil {
		t.Fatal(err)
	}
	// Probed at 0, 1 (opens), then 4, 7 (still failing), then 10 — which
	// succeeds and closes the breaker — then 11, 12, 13.
	m := st.Machines["M1"]
	if m.BreakerOpen || m.ConsecFails != 0 {
		t.Errorf("breaker did not close on recovery: %+v", m)
	}
	if st.Samples != 4 { // iterations 10–13
		t.Errorf("samples = %d, want 4", st.Samples)
	}
	if m.Attempts != 8 {
		t.Errorf("attempts = %d, want 8", m.Attempts)
	}
	if st.BreakerSkipped != 6 { // iterations 2, 3, 5, 6, 8, 9
		t.Errorf("skipped = %d, want 6", st.BreakerSkipped)
	}
}

func TestProbeTimeoutBoundsSlowAgent(t *testing.T) {
	run := func(timeout time.Duration) Stats {
		fx := &FaultExecutor{
			Inner:        &fakeExec{up: map[string]bool{"S": true}},
			SlowMachines: map[string]time.Duration{"S": 150 * time.Millisecond},
		}
		st, err := (&WallCollector{
			Cfg:          Config{Machines: []string{"S"}, Period: time.Millisecond},
			Exec:         fx,
			ProbeTimeout: timeout,
		}).Run(context.Background(), 2)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	if st := run(20 * time.Millisecond); st.Samples != 0 {
		t.Errorf("deadline did not bound the slow agent: %+v", st)
	}
	if st := run(0); st.Samples != 2 {
		t.Errorf("slow agent unreachable without deadline: %+v", st)
	}
}

// TestRunContextCancelled: a context cancelled before Run starts still
// books the first iteration, but no probe runs — the collector checks
// the context before every attempt, so even an executor that ignores
// contexts is never called.
func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	fake := &fakeExec{up: map[string]bool{"M1": true}}
	st, err := (&WallCollector{
		Cfg:  Config{Machines: []string{"M1"}, Period: time.Hour},
		Exec: fake,
	}).Run(ctx, 5)
	if err != nil {
		t.Fatal(err)
	}
	if st.Iterations != 1 {
		t.Errorf("iterations = %d, want 1 (cancelled)", st.Iterations)
	}
	if st.Samples != 0 {
		t.Errorf("cancelled context still sampled: %+v", st)
	}
	if len(fake.calls) != 0 {
		t.Errorf("cancelled run executed probes %v", fake.calls)
	}
}
