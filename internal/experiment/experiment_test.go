package experiment

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"winlab/internal/analysis"
	"winlab/internal/anomaly"
	"winlab/internal/behavior"
	"winlab/internal/ddc"
	"winlab/internal/lab"
	"winlab/internal/trace"
	"winlab/internal/trace/check"
)

// shortConfig returns a fast configuration: the full fleet for one week.
func shortConfig(seed int64) Config {
	cfg := Default(seed)
	cfg.Days = 7
	return cfg
}

func TestRunProducesCoherentDataset(t *testing.T) {
	res, err := Run(shortConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	d := res.Dataset
	if len(d.Machines) != 169 {
		t.Errorf("machines = %d", len(d.Machines))
	}
	wantIters := 7 * 96
	if got := len(d.Iterations) + res.Collector.Skipped; got != wantIters {
		t.Errorf("iterations+skipped = %d, want %d", got, wantIters)
	}
	if res.Collector.Skipped == 0 {
		t.Error("no coordinator outages despite OutageFraction > 0")
	}
	if len(d.Samples) == 0 {
		t.Fatal("no samples")
	}
	if d.Attempts() != len(d.Iterations)*169 {
		t.Errorf("attempts = %d", d.Attempts())
	}
	// Samples reference known machines and lie within the window.
	for i := range d.Samples {
		s := &d.Samples[i]
		if d.MachineByID(s.Machine) == nil {
			t.Fatalf("sample for unknown machine %q", s.Machine)
		}
		if s.Time.Before(d.Start) || !s.Time.Before(d.End.Add(time.Hour)) {
			t.Fatalf("sample at %v outside window", s.Time)
		}
		if s.Uptime < 0 || s.CPUIdle < 0 || s.CPUIdle > s.Uptime+time.Second {
			t.Fatalf("impossible counters: uptime=%v idle=%v", s.Uptime, s.CPUIdle)
		}
		if s.MemLoadPct < 0 || s.MemLoadPct > 100 || s.SwapLoadPct < 0 || s.SwapLoadPct > 100 {
			t.Fatalf("impossible loads: %d/%d", s.MemLoadPct, s.SwapLoadPct)
		}
		if s.FreeDiskGB < 0 || s.FreeDiskGB > s.DiskGB {
			t.Fatalf("impossible disk: free=%v size=%v", s.FreeDiskGB, s.DiskGB)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(shortConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(shortConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Dataset.Samples) != len(b.Dataset.Samples) {
		t.Fatalf("sample counts differ: %d vs %d", len(a.Dataset.Samples), len(b.Dataset.Samples))
	}
	for i := range a.Dataset.Samples {
		sa, sb := a.Dataset.Samples[i], b.Dataset.Samples[i]
		if sa != sb {
			t.Fatalf("sample %d differs:\n%+v\n%+v", i, sa, sb)
		}
	}
}

// TestRunValidation: every refusal is a *ConfigError naming the field,
// and Run makes it before doing any work.
func TestRunValidation(t *testing.T) {
	cases := []struct {
		field string
		edit  func(*Config)
	}{
		{"Days", func(c *Config) { c.Days = 0 }},
		{"Period", func(c *Config) { c.Period = 0 }},
		{"Behavior", func(c *Config) { c.Behavior.ForgetProb = 2 }},
		{"SnapshotEvery", func(c *Config) { c.SnapshotEvery = 4 }},
		{"SnapshotEvery", func(c *Config) {
			c.SnapshotEvery, c.OnSnapshot, c.Shards = 4, func(*trace.Dataset) {}, 2
		}},
		{"LabCalendars", func(c *Config) { c.LabCalendars = map[string]behavior.Calendar{"nowhere": {}} }},
		{"Lifecycle", func(c *Config) { c.Lifecycle = []behavior.Lifecycle{{}} }},
	}
	for _, tc := range cases {
		cfg := shortConfig(1)
		tc.edit(&cfg)
		_, err := Run(cfg)
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Errorf("%s: Run error = %v, want a *ConfigError", tc.field, err)
			continue
		}
		if ce.Field != tc.field || ce.Reason == "" {
			t.Errorf("%s: got %+v", tc.field, ce)
		}
		if verr := cfg.Validate(); verr == nil || verr.Error() != err.Error() {
			t.Errorf("%s: Validate() = %v, Run refused with %v", tc.field, verr, err)
		}
	}
	if err := shortConfig(1).Validate(); err != nil {
		t.Errorf("default config refused: %v", err)
	}
}

// TestConfigMatrix walks Shards × Inject × Detect × SnapshotEvery: every
// point either fails Validate with a *ConfigError or runs to a trace the
// invariant checker accepts — no refusal from inside the run, no field
// silently ignored (a snapshot tap that was wired published, an
// injection that was scheduled fired).
func TestConfigMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the experiment up to 24 times")
	}
	for _, shards := range []int{0, 1, 4} {
		for _, inject := range []bool{false, true} {
			for _, detect := range []bool{false, true} {
				for _, every := range []int{0, 24} {
					name := fmt.Sprintf("shards%d/inject=%v/detect=%v/every%d", shards, inject, detect, every)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						cfg := Default(1)
						cfg.Days = 2
						cfg.Shards = shards
						if inject {
							cfg.Inject = []InjectedAnomaly{
								{Kind: anomaly.KindAvailabilityCollapse, Lab: cfg.Labs[0].Name,
									Start: cfg.Start.Add(34 * time.Hour), End: cfg.Start.Add(36 * time.Hour)},
								{Kind: anomaly.KindSMARTAnomaly, Machines: []string{cfg.Labs[1].Name + "-M01"},
									Start: cfg.Start.Add(30 * time.Hour), End: cfg.Start.Add(31 * time.Hour), CycleJump: 500},
							}
						}
						if detect {
							cfg.Detect = anomaly.New(anomaly.Config{}, nil)
						}
						snaps := 0
						if every > 0 {
							cfg.SnapshotEvery = every
							cfg.OnSnapshot = func(*trace.Dataset) { snaps++ }
						}

						verr := cfg.Validate()
						res, err := Run(cfg)
						if verr != nil {
							var ce *ConfigError
							if !errors.As(verr, &ce) {
								t.Fatalf("Validate refused with %T (%v), want *ConfigError", verr, verr)
							}
							if err == nil {
								t.Fatal("Run accepted a config Validate refuses")
							}
							return
						}
						if err != nil {
							t.Fatalf("Validate accepted, Run refused: %v", err)
						}
						if r := check.Check(res.Dataset, check.Options{}); !r.OK() {
							t.Errorf("trace not doctor-clean: %v", r.Err())
						}
						if inject && res.Faults.DownDenied == 0 {
							t.Error("Inject set but no probe was denied")
						}
						if !inject && res.Faults != (ddc.FaultStats{}) {
							t.Errorf("fault stats without Inject: %+v", res.Faults)
						}
						if every > 0 && snaps != len(res.Dataset.Iterations)/every {
							t.Errorf("published %d snapshots over %d iterations (every %d)", snaps, len(res.Dataset.Iterations), every)
						}
						if (shards > 1) != (res.ShardDatasets != nil) {
							t.Errorf("Shards=%d but %d shard datasets", shards, len(res.ShardDatasets))
						}
					})
				}
			}
		}
	}
}

func TestGenerateOutages(t *testing.T) {
	cfg := Default(1)
	outs := GenerateOutages(cfg)
	if len(outs) == 0 {
		t.Fatal("no outages")
	}
	var total time.Duration
	for _, o := range outs {
		if !o.End.After(o.Start) {
			t.Fatalf("bad outage %+v", o)
		}
		if o.Start.Before(cfg.Start) || o.End.After(cfg.End()) {
			t.Fatalf("outage %+v outside experiment", o)
		}
		total += o.End.Sub(o.Start)
	}
	want := time.Duration(float64(cfg.Days) * 24 * float64(time.Hour) * cfg.OutageFraction)
	if total < want/2 || total > want*3/2 {
		t.Errorf("total outage = %v, want ≈%v", total, want)
	}
	cfg.OutageFraction = 0
	if GenerateOutages(cfg) != nil {
		t.Error("outages generated with zero fraction")
	}
}

// TestGenerateOutagesShortExperimentClamped is the regression for the
// negative-span bug: a one-day experiment with an outage fraction ≥ 1 and
// a long mean outage used to draw a length exceeding the experiment and
// feed Uniform a negative span, placing outages before the start. Every
// generated window must lie inside the experiment.
func TestGenerateOutagesShortExperimentClamped(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		cfg := Default(seed)
		cfg.Days = 1
		cfg.OutageFraction = 1.5
		cfg.OutageMeanLen = 200 * time.Hour
		for _, o := range GenerateOutages(cfg) {
			if !o.End.After(o.Start) {
				t.Fatalf("seed %d: bad outage %+v", seed, o)
			}
			if o.Start.Before(cfg.Start) || o.End.After(cfg.End()) {
				t.Fatalf("seed %d: outage %+v outside experiment [%v, %v]",
					seed, o, cfg.Start, cfg.End())
			}
		}
	}
}

func TestSamplingRateMatchesGroundTruth(t *testing.T) {
	// The fraction of answered probes must match the true powered-on
	// fraction of the fleet (they are the same quantity, measured two
	// ways).
	res, err := Run(shortConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	gt := Truth(res)
	if gt.PowerSessions == 0 || gt.InteractiveSessions == 0 {
		t.Fatal("empty ground truth")
	}
	var truthHours float64
	for _, m := range res.Fleet.Machines {
		for _, p := range m.PowerLog {
			truthHours += p.Duration().Hours()
		}
		if m.Powered() {
			truthHours += res.Config.End().Sub(m.BootTime()).Hours()
		}
	}
	truthFrac := truthHours / (float64(res.Fleet.Size()) * float64(res.Config.Days) * 24)
	sampleFrac := float64(len(res.Dataset.Samples)) / float64(res.Dataset.Attempts())
	if diff := truthFrac - sampleFrac; diff < -0.03 || diff > 0.03 {
		t.Errorf("sampled uptime %.3f vs true %.3f", sampleFrac, truthFrac)
	}
}

func TestShorterPeriodDetectsMoreSessions(t *testing.T) {
	// The paper's core methodological caveat: 15-minute sampling misses
	// short machine sessions. A 5-minute collector on the *same* fleet
	// evolution must detect at least as many sessions, and both must stay
	// at or below ground truth.
	cfg15 := shortConfig(7)
	cfg5 := shortConfig(7)
	cfg5.Period = 5 * time.Minute
	r15, err := Run(cfg15)
	if err != nil {
		t.Fatal(err)
	}
	r5, err := Run(cfg5)
	if err != nil {
		t.Fatal(err)
	}
	gt := Truth(r15)
	n15 := analysis.All(r15.Dataset, analysis.Options{}).Sessions.Count
	n5 := analysis.All(r5.Dataset, analysis.Options{}).Sessions.Count
	if n5 < n15 {
		t.Errorf("5-minute sampling detected fewer sessions (%d) than 15-minute (%d)", n5, n15)
	}
	if n15 > gt.PowerSessions || n5 > gt.PowerSessions {
		t.Errorf("detected more sessions (%d/%d) than ground truth (%d)", n15, n5, gt.PowerSessions)
	}
	if gt.ShortSessions == 0 {
		t.Error("no sub-period sessions in ground truth; ablation is vacuous")
	}
}

func TestTraceRoundTripThroughFile(t *testing.T) {
	cfg := shortConfig(9)
	cfg.Days = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/trace.csv"
	if err := trace.WriteFile(path, res.Dataset); err != nil {
		t.Fatal(err)
	}
	back, err := trace.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The analysis must agree on the round-tripped trace.
	a := analysis.MainResults(res.Dataset, analysis.DefaultForgottenThreshold)
	b := analysis.MainResults(back, analysis.DefaultForgottenThreshold)
	if a.Both.Samples != b.Both.Samples {
		t.Errorf("samples %d vs %d", a.Both.Samples, b.Both.Samples)
	}
	if d := a.Both.CPUIdlePct - b.Both.CPUIdlePct; d < -0.01 || d > 0.01 {
		t.Errorf("cpu idle %v vs %v after round trip", a.Both.CPUIdlePct, b.Both.CPUIdlePct)
	}
	if d := a.Both.RAMLoadPct - b.Both.RAMLoadPct; d != 0 {
		t.Errorf("ram %v vs %v after round trip", a.Both.RAMLoadPct, b.Both.RAMLoadPct)
	}
}

func TestCustomFleet(t *testing.T) {
	cfg := shortConfig(11)
	cfg.Days = 2
	cfg.Labs = []lab.Spec{{
		Name: "X1", Machines: 4, CPUModel: "Test", CPUGHz: 1,
		RAMMB: 256, DiskGB: 40, IntIndex: 20, FPIndex: 20, BaseImgGB: 10,
	}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dataset.Machines) != 4 {
		t.Errorf("machines = %d", len(res.Dataset.Machines))
	}
	for i := range res.Dataset.Samples {
		if res.Dataset.Samples[i].Lab != "X1" {
			t.Fatal("sample from unknown lab")
		}
	}
}

func TestOutagesLeaveGapsInIterations(t *testing.T) {
	cfg := shortConfig(13)
	cfg.Days = 3
	cfg.OutageFraction = 0.2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Collector.Skipped == 0 {
		t.Fatal("no skipped iterations")
	}
	// Iteration records must be strictly increasing with gaps.
	gaps := 0
	for i := 1; i < len(res.Dataset.Iterations); i++ {
		a, b := res.Dataset.Iterations[i-1], res.Dataset.Iterations[i]
		if b.Iter <= a.Iter {
			t.Fatal("iteration numbers not increasing")
		}
		if b.Iter > a.Iter+1 {
			gaps++
		}
	}
	if gaps == 0 {
		t.Error("no gaps in iteration numbering despite outages")
	}
}
