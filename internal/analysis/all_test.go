package analysis

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"winlab/internal/behavior"
	"winlab/internal/experiment"
	"winlab/internal/trace"
	"winlab/internal/trace/check"
)

// TestAllMatchesSerial is the determinism contract of the engine over an
// in-memory trace: for several seeds, every artefact All computes must be
// deep-equal (bit-identical floats and accumulator state included) to the
// per-artefact serial functions it replaced (batch_oracle_test.go), and
// Workers — which All ignores — must not change a bit.
func TestAllMatchesSerial(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		cfg := experiment.Default(seed)
		cfg.Days = 3
		res, err := experiment.Run(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		d := res.Dataset

		got := All(d, Options{Workers: 4})

		if want := oracleMainResults(d, DefaultForgottenThreshold); !reflect.DeepEqual(got.Table2, want) {
			t.Errorf("seed %d: Table2 engine != serial", seed)
		}
		if want := oracleSessionAge(d, 24); !reflect.DeepEqual(got.SessionAge, want) {
			t.Errorf("seed %d: SessionAge engine != serial", seed)
		}
		if want := oracleAvailability(d, DefaultForgottenThreshold); !reflect.DeepEqual(got.Availability, want) {
			t.Errorf("seed %d: Availability engine != serial", seed)
		}
		if want := oracleUptimeRatios(d); !reflect.DeepEqual(got.Uptimes, want) {
			t.Errorf("seed %d: Uptimes engine != serial", seed)
		}
		if want := oracleSessions(d, 96*time.Hour, 24); !reflect.DeepEqual(got.Sessions, want) {
			t.Errorf("seed %d: Sessions engine != serial", seed)
		}
		if want := oraclePowerCycles(d); !reflect.DeepEqual(got.PowerCycles, want) {
			t.Errorf("seed %d: PowerCycles engine != serial", seed)
		}
		if want := oracleWeekly(d); !reflect.DeepEqual(got.Weekly, want) {
			t.Errorf("seed %d: Weekly engine != serial", seed)
		}
		if want := oracleEquivalence(d, true); !reflect.DeepEqual(got.Equivalence, want) {
			t.Errorf("seed %d: Equivalence engine != serial", seed)
		}
		if want := oracleByLab(d, DefaultForgottenThreshold); !reflect.DeepEqual(got.Labs, want) {
			t.Errorf("seed %d: Labs engine != serial", seed)
		}
		if want := oracleCapacity(d); !reflect.DeepEqual(got.Capacity, want) {
			t.Errorf("seed %d: Capacity engine != serial", seed)
		}
		if want := oracleHeatmap(d, DefaultForgottenThreshold); !reflect.DeepEqual(got.Heatmap, want) {
			t.Errorf("seed %d: Heatmap engine != serial", seed)
		}

		serial := All(d, Options{Workers: 1})
		if !reflect.DeepEqual(got, serial) {
			t.Errorf("seed %d: All(Workers=4) != All(Workers=1)", seed)
		}

		// Spot-check the headline numbers the paper reports are present
		// and sane (the bit-identical checks above carry the real weight).
		if got.Table2.Both.UptimePct <= 0 || got.Table2.Both.CPUIdlePct <= 0 {
			t.Errorf("seed %d: degenerate Table2 %+v", seed, got.Table2.Both)
		}
		if got.Sessions.Count == 0 || got.Equivalence.TotalRatio <= 0 {
			t.Errorf("seed %d: degenerate sessions/equivalence", seed)
		}
	}
}

// churnDataset is a 7-day run whose catalogue carries partial lifetimes
// (two leavers, two joiners), read back through its TBv1 encoding — the
// version-2 header that stamps the lifetimes.
func churnDataset(t *testing.T) *trace.Dataset {
	t.Helper()
	cfg := experiment.Default(2)
	cfg.Days = 7
	day := func(n int) time.Time { return cfg.Start.AddDate(0, 0, n) }
	cfg.Lifecycle = []behavior.Lifecycle{
		{Machine: "L05-M01", Leave: day(3)},
		{Machine: "L06-M01", Leave: day(5)},
		{Machine: "L05-M02", Join: day(2)},
		{Machine: "L07-M01", Join: day(1), Leave: day(4)},
	}
	res, err := experiment.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := trace.ReadBinary(bytes.NewReader(encodeTB(t, res.Dataset)))
	if err != nil {
		t.Fatal(err)
	}
	partial := 0
	for _, m := range d.Machines {
		if m.PartialLifetime() {
			partial++
		}
	}
	if partial != len(cfg.Lifecycle) {
		t.Fatalf("churn fixture carries %d partial lifetimes, want %d", partial, len(cfg.Lifecycle))
	}
	return d
}

// TestEngineMatchesBatchOracle holds the engine to the per-artefact batch
// functions it replaced, field for field and bit for bit, across seeds, a
// churned fleet and every option the analysis takes — including the
// frozen MainResults and Heatmap names and MainResults' zero threshold,
// which disables reclassification.
func TestEngineMatchesBatchOracle(t *testing.T) {
	traces := map[string]*trace.Dataset{"churn": churnDataset(t)}
	for seed := int64(1); seed <= 3; seed++ {
		cfg := experiment.Default(seed)
		cfg.Days = 7
		res, err := experiment.Run(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		traces[fmt.Sprintf("seed%d", seed)] = res.Dataset
	}
	options := map[string]Options{
		"default":    {},
		"threshold6": {Threshold: 6 * time.Hour},
		"unweighted": {UnweightedEquivalence: true},
		"hist48x12":  {HistCap: 48 * time.Hour, HistBins: 12},
		"age12":      {SessionAgeHours: 12},
	}
	for name, d := range traces {
		for oname, opts := range options {
			if diff := check.FirstDiff(oracleAll(d, opts), All(d, opts)); diff != "" {
				t.Errorf("%s/%s: All diverges from the batch oracle: %s", name, oname, diff)
			}
		}
		for _, th := range []time.Duration{0, 6 * time.Hour, DefaultForgottenThreshold} {
			if diff := check.FirstDiff(oracleMainResults(d, th), MainResults(d, th)); diff != "" {
				t.Errorf("%s: MainResults(%v) diverges from the batch oracle: %s", name, th, diff)
			}
			if diff := check.FirstDiff(oracleHeatmap(d, th), Heatmap(d, th)); diff != "" {
				t.Errorf("%s: Heatmap(%v) diverges from the batch oracle: %s", name, th, diff)
			}
		}
		if got := MainResults(d, 0).Reclass.Reclassified; got != 0 {
			t.Errorf("%s: zero threshold reclassified %d samples", name, got)
		}

		// The slot-level IdlenessWhen sees the same intervals as the
		// per-interval original for any predicate a calendar can express.
		night := func(at time.Time) bool { return at.Hour() < 8 || at.Weekday() == time.Sunday }
		want := oracleIdlenessWhen(d, night)
		got := All(d, Options{}).Weekly.IdlenessWhen(night)
		if got.N() != want.N() || !approxEq(got.Mean(), want.Mean()) {
			t.Errorf("%s: IdlenessWhen n=%d mean=%v, oracle n=%d mean=%v", name, got.N(), got.Mean(), want.N(), want.Mean())
		}
	}
}

// TestAllDefaultOptions checks the zero Options value fills the paper's
// defaults rather than degenerate parameters.
func TestAllDefaultOptions(t *testing.T) {
	cfg := experiment.Default(1)
	cfg.Days = 2
	res, err := experiment.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := All(res.Dataset, Options{})
	if got.Sessions.HistCap != 96*time.Hour {
		t.Errorf("HistCap default = %v", got.Sessions.HistCap)
	}
	if len(got.SessionAge.Buckets) != 24 {
		t.Errorf("SessionAge buckets = %d", len(got.SessionAge.Buckets))
	}
	if got.Table2.Threshold != DefaultForgottenThreshold {
		t.Errorf("threshold default = %v", got.Table2.Threshold)
	}
}
