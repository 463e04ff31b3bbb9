package experiment_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"winlab/internal/experiment"
	"winlab/internal/scenario"
	"winlab/internal/trace"
)

// goldenRun is one pinned run: the FNV-64a of the dataset's TBv1 bytes
// and the collector's run counters.
type goldenRun struct {
	name     string
	seed     int64
	days     int
	scenario string // bundled scenario name; "" is the default config
	tbFNV64  string
	stats    goldenStats
}

// goldenStats is the comparable subset of ddc.Stats the golden pins.
type goldenStats struct{ Iterations, Skipped, Attempts, Samples int }

// goldenRuns was recorded ONCE, from the sequential simulated collector
// of the commit before that collector was deleted (d74a73b, PR 11), and is the
// reference every later collector must reproduce byte for byte. It is
// data, not a second code path: never regenerate it from the code under
// test. (The 77-day digests for seeds 1–5 are pinned the same way in
// tools/pipebench/ledger/PR11-a.json.) The lockdown run is 14 days, not
// 7, so the day-7 regime ramp is inside the window.
var goldenRuns = []goldenRun{
	{name: "default/seed1", seed: 1, days: 7,
		tbFNV64: "45ef587d5082cc6f", stats: goldenStats{625, 47, 105625, 48782}},
	{name: "default/seed2", seed: 2, days: 7,
		tbFNV64: "860f74c48f9e608f", stats: goldenStats{627, 45, 105963, 55706}},
	{name: "default/seed3", seed: 3, days: 7,
		tbFNV64: "616a1bdc82dd1e64", stats: goldenStats{625, 47, 105625, 49010}},
	{name: "lockdown/seed1", seed: 1, days: 14, scenario: "lockdown",
		tbFNV64: "c227c0de38dcfb62", stats: goldenStats{1255, 89, 212095, 89921}},
}

func (g goldenRun) config(t *testing.T) experiment.Config {
	t.Helper()
	cfg := experiment.Default(g.seed)
	if g.scenario != "" {
		sc, err := scenario.Bundled(g.scenario)
		if err != nil {
			t.Fatal(err)
		}
		if err := sc.Apply(&cfg); err != nil {
			t.Fatal(err)
		}
	}
	cfg.Days = g.days
	return cfg
}

// TestGoldenSequentialCollector replays the pinned runs and compares the
// trace bytes and collector counters with what the deleted sequential
// collector produced.
func TestGoldenSequentialCollector(t *testing.T) {
	for _, g := range goldenRuns {
		g := g
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			res, err := experiment.Run(g.config(t))
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			if err := trace.WriteBinary(h, res.Dataset); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%016x", h.Sum64()); got != g.tbFNV64 {
				t.Errorf("TBv1 FNV-64a = %s, golden %s", got, g.tbFNV64)
			}
			st := res.Collector
			if got := (goldenStats{st.Iterations, st.Skipped, st.Attempts, st.Samples}); got != g.stats {
				t.Errorf("collector stats = %+v, golden %+v", got, g.stats)
			}
		})
	}
}
