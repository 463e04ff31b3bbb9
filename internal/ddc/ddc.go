// Package ddc reimplements the paper's Distributed Data Collector (§3): a
// central coordinator that periodically executes a software probe on every
// machine of a set, captures the probe's standard output and feeds it to
// post-collecting code.
//
// The remote-execution mechanism is abstracted behind Executor. Two
// implementations exist: Direct (in-process against the simulated fleet,
// the moral equivalent of psexec inside the simulation) and TCPExecutor
// (a real network transport against probe agents, see tcpx.go).
package ddc

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// ErrUnreachable is returned by an Executor when the target machine did
// not respond — powered off, or the remote-execution timed out.
var ErrUnreachable = errors.New("ddc: machine unreachable")

// ErrBreakerOpen is reported to the post-collect hook for machines the
// collector skipped because their circuit breaker is open. It wraps
// ErrUnreachable so existing error handling keeps treating the machine as
// down.
var ErrBreakerOpen = fmt.Errorf("%w: breaker open, probe skipped", ErrUnreachable)

// Executor runs the probe binary on a remote machine and captures its
// standard output: Exec appends the report to dst and returns the
// extended slice, allocating only when dst lacks capacity. On error it
// returns nil and dst is unchanged. Executors honour ctx's cancellation
// and deadline as far as their transport allows; an in-process probe is
// instantaneous and may ignore it.
//
// Collectors reuse one buffer per worker or batch, which is what makes
// the steady-state collection loop allocation-free — so the returned
// bytes alias dst, and the caller must fully consume them (parse, copy,
// hash) before reusing the buffer. PostCollect inherits the same rule.
type Executor interface {
	Exec(ctx context.Context, dst []byte, machineID string) ([]byte, error)
}

// AtExecutor is the executor shape for sources that can defer the probe
// itself: the scheduling step receives the probe's simulated instant
// explicitly, decides reachability, and returns a render job that may run
// later on another goroutine. A BeginAppendAt implementation backed by a
// pure (time-travel-queryable) source defers even the snapshot to the
// job, so the collector's serial chain does O(1) work per probe and the
// per-shard goroutines do the rest — that is what lets sharded
// collection scale (see PureDirect).
type AtExecutor interface {
	BeginAppendAt(machineID string, at time.Time) (AppendProbeJob, error)
}

// AppendProbeJob is the deferred half of an AtExecutor probe: the
// order-sensitive scheduling decision has already been made on the
// collector's chain, and calling the job performs the remaining pure
// work — it appends the report to dst and returns the extended slice.
// Jobs are independent and safe to run concurrently with one another.
// The same aliasing rule as Executor.Exec applies.
type AppendProbeJob func(dst []byte) []byte

// PostCollect is the coordinator-side hook run after every probe attempt,
// successful or not — the paper's "post-collecting code". stdout is nil
// when err is non-nil.
//
// Lifetime: stdout is only guaranteed valid for the duration of the call.
// Collectors reuse the underlying buffer for the next probe, so hooks
// must parse or copy, never retain the slice (DatasetSink parses
// immediately and retains nothing).
type PostCollect func(iter int, machineID string, stdout []byte, err error)

// IterationInfo describes one finished collector iteration, including the
// collection-health counters accumulated while running it. Attempted and
// Responded mirror the paper's per-iteration bookkeeping; the remaining
// fields expose the hardened collector's retry/breaker machinery (always
// zero on the simulated clock, which models the paper's retry-free
// coordinator).
type IterationInfo struct {
	Iter      int
	Start     time.Time
	End       time.Time // when the iteration's sweep finished (sim or wall clock)
	Attempted int       // machines scheduled this iteration
	Responded int       // machines that yielded a report

	Probes         int // probe executions, including retries
	Retries        int // probe executions beyond each machine's first try
	BreakerSkipped int // machines skipped because their breaker was open
	BreakerOpen    int // machines whose breaker is open after the iteration
}

// IterationFunc is the per-iteration hook shared by both collectors.
type IterationFunc func(info IterationInfo)

// Config configures a collector run.
type Config struct {
	Machines []string      // probe targets, probed sequentially in order
	Period   time.Duration // iteration period (the paper used 15 minutes)

	// Probe pacing: how long one remote execution takes. DDC probes
	// sequentially, so these latencies spread an iteration's samples over
	// several minutes, exactly like the paper's coordinator did.
	LatencyOK   func() time.Duration // successful execution
	LatencyFail func() time.Duration // timeout on an unreachable machine

	// Outages: intervals during which the coordinator is down. Iterations
	// whose start falls inside an outage are skipped entirely (the paper
	// ran 6883 of the 7392 possible iterations).
	Outages []Outage
}

// Outage is a coordinator downtime window.
type Outage struct {
	Start, End time.Time
}

// Contains reports whether t falls inside the outage.
func (o Outage) Contains(t time.Time) bool {
	return !t.Before(o.Start) && t.Before(o.End)
}

// Stats summarises a collector run.
type Stats struct {
	Iterations int
	Skipped    int // iterations lost to coordinator outages
	Attempts   int // probe executions, including retries
	Samples    int

	// Collection-health counters (populated by WallCollector; the
	// simulated-clock collector models the paper's retry-free coordinator
	// and leaves them zero).
	Retries        int // probe executions beyond each machine's first try
	BreakerSkipped int // machine-iterations skipped by an open breaker
	BreakerOpens   int // closed→open breaker transitions

	// Machines holds per-machine health at the end of the run, keyed by
	// machine ID. Nil when the collector tracks no per-machine health.
	Machines map[string]MachineHealth
}

// MachineHealth is the per-machine view of collection health.
type MachineHealth struct {
	Attempts    int  // probe executions against this machine, incl. retries
	Retries     int  // executions beyond the first try of each iteration
	Failures    int  // iterations whose probe (after retries) failed
	ConsecFails int  // current consecutive failed iterations
	BreakerOpen bool // breaker currently open
}

// Validate checks a configuration for the mistakes that otherwise surface
// as confusing scheduling behaviour.
func (c *Config) Validate() error {
	if len(c.Machines) == 0 {
		return fmt.Errorf("ddc: no machines configured")
	}
	if c.Period <= 0 {
		return fmt.Errorf("ddc: non-positive period %v", c.Period)
	}
	for _, o := range c.Outages {
		if !o.End.After(o.Start) {
			return fmt.Errorf("ddc: outage ends (%v) before it starts (%v)", o.End, o.Start)
		}
	}
	return nil
}

func (c *Config) inOutage(t time.Time) bool {
	for _, o := range c.Outages {
		if o.Contains(t) {
			return true
		}
	}
	return false
}

func (c *Config) latOK() time.Duration {
	if c.LatencyOK != nil {
		return c.LatencyOK()
	}
	return 1500 * time.Millisecond
}

func (c *Config) latFail() time.Duration {
	if c.LatencyFail != nil {
		return c.LatencyFail()
	}
	return 4 * time.Second
}
