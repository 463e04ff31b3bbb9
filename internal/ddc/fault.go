package ddc

import (
	"context"
	"fmt"
	"sync"
	"time"

	"winlab/internal/rng"
)

// FaultExecutor wraps an Executor with deterministic, seeded fault
// injection: transient probe failures, latency spikes, permanently slow
// agents, and hard-down machines. It exists so the collector's
// retry/backoff/breaker policies are testable without a flaky network —
// the same experiment seed always injects the same fault sequence (probe
// order permitting; with sequential probing the sequence is fully
// reproducible).
type FaultExecutor struct {
	Inner Executor

	// TransientFailP is the per-attempt probability of injecting a
	// transient ErrUnreachable instead of executing the probe.
	TransientFailP float64
	// LatencySpikeP is the per-attempt probability of sleeping
	// SpikeLatency before the probe runs (a congested or GC-pausing
	// agent). Spikes honour context cancellation.
	LatencySpikeP float64
	SpikeLatency  time.Duration
	// SlowMachines adds a fixed latency to every probe of the listed
	// machines — the chronically slow agent the per-probe deadline is
	// meant to bound.
	SlowMachines map[string]time.Duration
	// DownFn, when set, is consulted on every attempt: a machine it
	// reports down is hard-down for that attempt — every probe fails
	// with ErrUnreachable, the breaker's target scenario. The down set
	// may change over (simulated) time: injected availability collapses
	// close over the experiment clock and flip whole labs here. Called
	// under the executor's mutex; keep it fast and non-reentrant.
	DownFn func(machineID string) bool
	// Seed seeds the injection stream.
	Seed int64

	mu    sync.Mutex
	src   *rng.Source
	stats FaultStats
}

// FaultStats counts what the wrapper injected.
type FaultStats struct {
	Calls      int // probe attempts seen
	Transients int // injected transient failures
	Spikes     int // injected latency spikes
	DownDenied int // probes denied because the machine is hard-down
}

// Stats returns a snapshot of the injection counters.
func (f *FaultExecutor) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// decide draws the fault plan for one attempt under the mutex, so
// concurrent probes see a serialised, seed-deterministic stream.
func (f *FaultExecutor) decide(machineID string) (transient bool, delay time.Duration, down bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.src == nil {
		f.src = rng.Derive(f.Seed, "ddc-fault")
	}
	f.stats.Calls++
	if f.DownFn != nil && f.DownFn(machineID) {
		f.stats.DownDenied++
		return false, 0, true
	}
	if f.TransientFailP > 0 && f.src.Float64() < f.TransientFailP {
		f.stats.Transients++
		return true, 0, false
	}
	if f.LatencySpikeP > 0 && f.src.Float64() < f.LatencySpikeP {
		f.stats.Spikes++
		delay += f.SpikeLatency
	}
	delay += f.SlowMachines[machineID]
	return false, delay, false
}

// inject applies the attempt's fault plan: it returns the injected
// failure, or nil (after any injected delay) when the probe should run.
// Injected delays respect ctx; a cancelled delay returns ErrUnreachable,
// exactly like a timed-out probe.
func (f *FaultExecutor) inject(ctx context.Context, machineID string) error {
	transient, delay, down := f.decide(machineID)
	if down {
		return fmt.Errorf("%w: %s: injected hard-down", ErrUnreachable, machineID)
	}
	if transient {
		return fmt.Errorf("%w: %s: injected transient failure", ErrUnreachable, machineID)
	}
	if delay > 0 {
		sleepCtx(ctx, delay)
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("%w: %s: %v", ErrUnreachable, machineID, err)
		}
	}
	return nil
}

// Exec implements Executor: it applies the attempt's fault plan, then
// runs the inner executor into the same dst, so an injected run keeps
// the pooled-buffer collection loop.
func (f *FaultExecutor) Exec(ctx context.Context, dst []byte, machineID string) ([]byte, error) {
	if err := f.inject(ctx, machineID); err != nil {
		return nil, err
	}
	return f.Inner.Exec(ctx, dst, machineID)
}
