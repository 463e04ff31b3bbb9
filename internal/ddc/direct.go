package ddc

import (
	"context"
	"time"

	"winlab/internal/machine"
	"winlab/internal/probe"
)

// StateSource provides machine snapshots at a given instant. The simulated
// fleet implements it via an adapter; a live agent implements it against
// real machine state.
type StateSource interface {
	// Snapshot probes the machine; ok is false when it is unreachable.
	Snapshot(machineID string, at time.Time) (machine.Snapshot, bool)
}

// Direct is an Executor that runs the probe in-process against a
// StateSource using a clock function — the simulation equivalent of
// psexec-ing W32Probe on the target host.
type Direct struct {
	Source StateSource
	Now    func() time.Time
}

// Exec implements Executor: the report is rendered into dst, so a
// collector reusing one buffer probes without allocating. The probe is
// in-process and instantaneous, so ctx is not consulted.
func (d *Direct) Exec(_ context.Context, dst []byte, machineID string) ([]byte, error) {
	return d.ExecAppend(dst, machineID)
}

// ExecAppend is Exec without a context.
func (d *Direct) ExecAppend(dst []byte, machineID string) ([]byte, error) {
	sn, ok := d.Source.Snapshot(machineID, d.Now())
	if !ok {
		return nil, ErrUnreachable
	}
	return probe.AppendReport(dst, &sn), nil
}

// PureSource is a StateSource whose snapshots are pure functions of
// (machine, instant): Snapshot may be called from any goroutine, at any
// real time, for any simulated instant, and returns the same state.
// Reachable must agree with what Snapshot's ok result would be at the
// same instant. The simulated fleet does NOT qualify — machine.Machine
// advances internal counters on every Snapshot, so it must be probed on
// the engine thread via Direct — but arithmetically-derived sources
// (the gridscale harness) and replay sources do, and they are where the
// scale-out matters.
type PureSource interface {
	StateSource
	Reachable(machineID string, at time.Time) bool
}

// PureDirect is the Executor/AtExecutor over a PureSource: scheduling
// only asks Reachable (cheap, on the engine chain), and the returned job
// takes the snapshot and renders the report on whatever goroutine runs
// it — the honest model of a real deployment, where the probe executes
// on the remote machine, not on the coordinator.
type PureDirect struct {
	Source PureSource
	Now    func() time.Time
}

// Exec implements Executor for serial use of the same source.
func (d *PureDirect) Exec(ctx context.Context, dst []byte, machineID string) ([]byte, error) {
	return (&Direct{Source: d.Source, Now: d.Now}).Exec(ctx, dst, machineID)
}

// BeginAppendAt implements AtExecutor. If the source breaks the purity
// contract (Reachable true but Snapshot later says no), the job renders
// an empty report, which the sink books as a parse error — visible, not
// silently dropped.
func (d *PureDirect) BeginAppendAt(machineID string, at time.Time) (AppendProbeJob, error) {
	if !d.Source.Reachable(machineID, at) {
		return nil, ErrUnreachable
	}
	src := d.Source
	return func(dst []byte) []byte {
		sn, ok := src.Snapshot(machineID, at)
		if !ok {
			return dst
		}
		return probe.AppendReport(dst, &sn)
	}, nil
}
