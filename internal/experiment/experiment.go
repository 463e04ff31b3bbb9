// Package experiment orchestrates the end-to-end reproduction: build the
// fleet, animate it with the behaviour model, run the DDC collector over
// it for the experiment duration, and hand back the collected trace
// together with the simulator's ground truth (for ablations that quantify
// what 15-minute sampling misses).
package experiment

import (
	"fmt"
	"sync"
	"time"

	"winlab/internal/anomaly"
	"winlab/internal/behavior"
	"winlab/internal/ddc"
	"winlab/internal/lab"
	"winlab/internal/rng"
	"winlab/internal/sim"
	"winlab/internal/telemetry"
	"winlab/internal/trace"
)

// Config configures a full experiment run.
type Config struct {
	Seed   int64
	Start  time.Time     // experiment start; the default is a Monday 00:00
	Days   int           // the paper monitored for 77 days
	Period time.Duration // sampling period (15 minutes in the paper)

	Labs     []lab.Spec
	DiskLife lab.DiskLife
	Behavior behavior.Config

	// Coordinator outages: the paper completed 6883 of 7392 possible
	// iterations (~6.9% lost). OutageFraction is the target fraction of
	// lost iterations; OutageMeanLen the mean outage length.
	OutageFraction float64
	OutageMeanLen  time.Duration

	// Telemetry, when set, streams the collector's and sink's health into
	// the registry (ddc_*/sink_* metrics plus per-probe spans) so a
	// -metrics-addr scrape can watch the run live. Nil keeps the run
	// uninstrumented.
	Telemetry *telemetry.Registry

	// Inject schedules synthetic anomalies into the run: the state source
	// is wrapped in an Injector (report corruption) and a FaultExecutor
	// (collapse windows as denied probes), so the injection timetable is
	// free ground truth for the detection-quality gate (see
	// DefaultAnomalyScenarios and anomaly's TestDetectionQualityGate).
	// The fault decision is made on the collector's scheduling chain, so
	// injection composes with any shard count. Empty keeps the run
	// byte-identical to pre-injection behaviour.
	Inject []InjectedAnomaly

	// Detect, when set, taps the sink's commit path with the streaming
	// anomaly detectors: every committed sample and iteration record is
	// fed through Detect under the sink lock, and detections land on the
	// detector's event ring (and its telemetry registry, if any). The
	// caller reads results via Detect.Ring().
	Detect *anomaly.Detectors

	// Shards > 1 partitions the fleet across that many coordinator
	// shards (lab-aligned, see ddc.PartitionLabAligned): probe scheduling
	// and execution stay one serial chain, but report parsing and sink
	// commits run on one goroutine per shard against a per-shard sink.
	// The merged dataset and the fleet-wide collector stats are identical
	// to a one-shard run (internal/validate's shard arms); the per-shard
	// datasets and stats are additionally exposed on the Result. Zero or
	// one is the paper's serial coordinator: the same collector with a
	// single shard.
	//
	// Anomaly detection composes with sharding under two rules. Shard
	// boundaries are lab-aligned, so a lab's samples all flow through one
	// shard goroutine and reach the detectors in the serial order — the
	// per-lab detector view stays coherent; sample taps from different
	// shards interleave across labs, so cross-lab event *order* may
	// differ from a one-shard run, but the event set does not
	// (TestShardedDetectCoherent). And iteration records are fed to the
	// detectors once, fleet-wide, from the collector's end-of-iteration
	// barrier, which fires after every shard committed the iteration
	// (that feed carries no parse-error count; detectors ignore it).
	Shards int

	// Scenario hooks (internal/scenario composes these; all empty by
	// default, keeping runs byte-identical to pre-scenario behaviour).
	// Overlay modulates arrival/attendance/shutdown rates over time
	// (regime shifts); LabCalendars gives labs their own opening hours
	// and wall-clock time zones; AlwaysOnLabs marks server pools that
	// never close and host no interactive use; ExtraMachines appends
	// off-catalogue machines (hardware refresh, added servers); and
	// Lifecycle bounds machines' fleet membership in time (joiners,
	// leavers). Lifecycle windows are stamped onto the trace catalogue
	// as [JoinIter, LeaveIter) so checks and analysis denominators see
	// the churn.
	Overlay       behavior.Overlay
	LabCalendars  map[string]behavior.Calendar
	AlwaysOnLabs  []string
	ExtraMachines []lab.Extra
	Lifecycle     []behavior.Lifecycle

	// SnapshotEvery > 0 publishes a read-only view of the accumulated
	// dataset (ddc.DatasetSink.SnapshotEvery; no samples are copied) to
	// OnSnapshot every that many completed iterations — the feed for the
	// query service's snapshot store (query.Store.Publish). Views are cut
	// under the sink lock at iteration boundaries, so each one is an
	// exact committed prefix of the final trace, and stays one.
	// OnSnapshot runs on the collector's shard goroutine, not the
	// engine's. Requires OnSnapshot; incompatible with Shards > 1 (there
	// is no single sink whose prefix would be the fleet-wide trace).
	SnapshotEvery int
	OnSnapshot    func(*trace.Dataset)
}

// Default returns the configuration reproducing the paper's experiment.
func Default(seed int64) Config {
	return Config{
		Seed:           seed,
		Start:          time.Date(2003, 10, 6, 0, 0, 0, 0, time.UTC), // a Monday
		Days:           77,
		Period:         15 * time.Minute,
		Labs:           lab.PaperCatalog(),
		DiskLife:       lab.DefaultDiskLife(),
		Behavior:       behavior.DefaultConfig(seed),
		OutageFraction: 0.069,
		OutageMeanLen:  3 * time.Hour,
	}
}

// End returns the experiment end time.
func (c Config) End() time.Time { return c.Start.AddDate(0, 0, c.Days) }

// Result is the outcome of a run: the collected trace plus ground truth.
type Result struct {
	Config    Config
	Dataset   *trace.Dataset
	Fleet     *lab.Fleet      // ground-truth power/session logs live here
	Model     *behavior.Model // behaviour diagnostics (boots, forgets, ...)
	Collector ddc.Stats
	Faults    ddc.FaultStats // what Config.Inject's fault wrapper injected; zero without Inject

	// Sharded runs (Config.Shards > 1) also expose the per-shard view:
	// ShardDatasets[i] is shard i's own dataset (Dataset is their
	// MergeSharded union) and ShardStats[i] its collection stats
	// (ddc.SumShardStats folds them back into Collector). Nil for
	// unsharded runs.
	ShardDatasets []*trace.Dataset
	ShardStats    []ddc.Stats
}

// ConfigError is the typed refusal Config.Validate returns: which field
// (or field combination) is unusable, and why.
type ConfigError struct {
	Field  string
	Reason string
}

func (e *ConfigError) Error() string { return "experiment: " + e.Field + ": " + e.Reason }

// Validate reports every reason Run would refuse the configuration, up
// front: a config that validates runs to completion (barring corrupt
// probe output), and no field is silently ignored.
func (c Config) Validate() error {
	if c.Days <= 0 {
		return &ConfigError{"Days", fmt.Sprintf("non-positive duration %d days", c.Days)}
	}
	if c.Period <= 0 {
		return &ConfigError{"Period", fmt.Sprintf("non-positive period %v", c.Period)}
	}
	if err := c.Behavior.Validate(); err != nil {
		return &ConfigError{"Behavior", err.Error()}
	}
	if c.SnapshotEvery > 0 && c.OnSnapshot == nil {
		return &ConfigError{"SnapshotEvery", "set without OnSnapshot"}
	}
	if c.SnapshotEvery > 0 && c.Shards > 1 {
		return &ConfigError{"SnapshotEvery", "incompatible with Shards > 1 (no single sink holds the fleet-wide prefix)"}
	}
	return validateScenario(c)
}

// Run executes the full experiment.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	start, end := cfg.Start, cfg.End()

	fleet := buildFleet(cfg)
	model := behavior.NewModel(cfg.Behavior, fleet)
	applyScenario(model, cfg)
	eng := sim.New(start)
	model.Install(eng, start, end)

	infos := machineInfos(cfg, fleet)
	if cfg.Detect != nil {
		cfg.Detect.SetMachines(infos)
	}
	serial := cfg.Shards <= 1

	// One sink per shard. The serial coordinator's single sink feeds the
	// detectors and the snapshot tap directly; with several shards the
	// sample taps run on the shard goroutines and the iteration feed on
	// the engine goroutine, so detectMu serialises the detector.
	var detectMu sync.Mutex
	parts := ddc.PartitionLabAligned(infos, max(1, cfg.Shards))
	sinks := make([]*ddc.DatasetSink, len(parts))
	shards := make([]ddc.ShardSpec, len(parts))
	for i, part := range parts {
		sink := ddc.NewDatasetSink(start, end, cfg.Period, part).WithTelemetry(cfg.Telemetry)
		switch {
		case cfg.Detect == nil:
		case serial:
			sink.Tap(cfg.Detect.Sample, cfg.Detect.Iteration)
		default:
			sink.Tap(func(s *trace.Sample) {
				detectMu.Lock()
				cfg.Detect.Sample(s)
				detectMu.Unlock()
			}, nil)
		}
		if cfg.SnapshotEvery > 0 {
			sink.SnapshotEvery(cfg.SnapshotEvery, cfg.OnSnapshot)
		}
		ids := make([]string, len(part))
		for j, mi := range part {
			ids[j] = mi.ID
		}
		sinks[i] = sink
		shards[i] = ddc.ShardSpec{Machines: ids, Post: sink.Post, OnIteration: sink.OnIteration}
	}

	direct := &ddc.Direct{Source: lab.Source{Fleet: fleet}, Now: eng.Now}
	var exec ddc.Executor = direct
	var faults *ddc.FaultExecutor
	if len(cfg.Inject) > 0 {
		inj := NewInjector(direct.Source, infos, cfg.Inject)
		direct.Source = inj
		faults = &ddc.FaultExecutor{
			Inner:  direct,
			Seed:   cfg.Seed,
			DownFn: func(id string) bool { return inj.DownNow(id, eng.Now()) },
		}
		exec = faults
	}
	lat := rng.Derive(cfg.Seed, "latency")
	coll := &ddc.ShardedCollector{
		Telemetry: cfg.Telemetry,
		Cfg: ddc.Config{
			Period: cfg.Period,
			LatencyOK: func() time.Duration {
				return time.Duration(lat.Uniform(float64(500*time.Millisecond), float64(2500*time.Millisecond)))
			},
			LatencyFail: func() time.Duration {
				return time.Duration(lat.Uniform(float64(2*time.Second), float64(6*time.Second)))
			},
			Outages: GenerateOutages(cfg),
		},
		Exec:   exec,
		Shards: shards,
	}
	if cfg.Detect != nil && !serial {
		coll.OnIteration = func(info ddc.IterationInfo) {
			detectMu.Lock()
			cfg.Detect.Iteration(trace.Iteration{
				Iter: info.Iter, Start: info.Start, End: info.End,
				Attempted: info.Attempted, Responded: info.Responded,
			})
			detectMu.Unlock()
		}
	}
	if err := coll.Install(eng, start, end); err != nil {
		return nil, err
	}

	eng.RunUntil(end)
	coll.Finish()

	shardDS := make([]*trace.Dataset, len(sinks))
	for i, sink := range sinks {
		ds, err := sink.Dataset()
		if err != nil {
			return nil, fmt.Errorf("experiment: shard %d: corrupt probe output: %w", i, err)
		}
		ds.SortSamples()
		shardDS[i] = ds
	}
	res := &Result{
		Config:    cfg,
		Dataset:   shardDS[0],
		Fleet:     fleet,
		Model:     model,
		Collector: coll.Stats(),
	}
	if faults != nil {
		res.Faults = faults.Stats()
	}
	if !serial {
		merged, err := trace.MergeSharded(shardDS...)
		if err != nil {
			return nil, fmt.Errorf("experiment: %w", err)
		}
		res.Dataset, res.ShardDatasets, res.ShardStats = merged, shardDS, coll.ShardStats()
	}
	return res, nil
}

// GenerateOutages draws coordinator downtime windows totalling roughly
// OutageFraction of the experiment, with exponentially distributed
// lengths.
func GenerateOutages(cfg Config) []ddc.Outage {
	if cfg.OutageFraction <= 0 {
		return nil
	}
	src := rng.Derive(cfg.Seed, "outages")
	total := time.Duration(cfg.Days) * 24 * time.Hour
	target := time.Duration(float64(total) * cfg.OutageFraction)
	// An outage fraction ≥ 1 (or a short experiment with a long mean
	// outage) used to push a drawn length past the experiment span, making
	// the start-offset draw Uniform(0, negative) and placing the outage
	// before the experiment began. Clamp both to the span; the clamps are
	// no-ops for every sane configuration, so existing seeds reproduce.
	if target > total {
		target = total
	}
	mean := cfg.OutageMeanLen
	if mean <= 0 {
		mean = 3 * time.Hour
	}
	var out []ddc.Outage
	var acc time.Duration
	for acc < target {
		length := time.Duration(src.Exponential(float64(mean)))
		if length < cfg.Period {
			length = cfg.Period
		}
		if length > total {
			length = total
		}
		if acc+length > target {
			length = target - acc
			if length < cfg.Period {
				break
			}
		}
		startOff := time.Duration(src.Uniform(0, float64(total-length)))
		out = append(out, ddc.Outage{
			Start: cfg.Start.Add(startOff),
			End:   cfg.Start.Add(startOff + length),
		})
		acc += length
	}
	return out
}
