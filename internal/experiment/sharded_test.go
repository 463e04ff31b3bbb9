package experiment

import (
	"reflect"
	"sort"
	"testing"

	"winlab/internal/anomaly"
	"winlab/internal/ddc"
	"winlab/internal/trace/check"
)

// TestRunShardedMatchesSerial is the end-to-end identity contract: a
// Shards=3 run over the paper fleet must reproduce the one-shard run's
// dataset sample for sample, iteration for iteration, and its collector
// stats — and the per-shard stats must fold back into the fleet-wide
// ones. (Seeds 1–3 at full length are covered by internal/validate's
// shard arms under make doctor; this is the fast in-package gate.)
func TestRunShardedMatchesSerial(t *testing.T) {
	cfg := shortConfig(1)
	cfg.Days = 2
	serial, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shards = 3
	sharded, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	if len(sharded.ShardDatasets) != 3 || len(sharded.ShardStats) != 3 {
		t.Fatalf("shard views: %d datasets, %d stats", len(sharded.ShardDatasets), len(sharded.ShardStats))
	}
	if diff := check.DiffDatasets(serial.Dataset, sharded.Dataset); diff != "" {
		t.Errorf("sharded dataset differs from serial: %s", diff)
	}
	if !reflect.DeepEqual(serial.Collector, sharded.Collector) {
		t.Errorf("collector stats differ:\nserial  %+v\nsharded %+v", serial.Collector, sharded.Collector)
	}
	if got := ddc.SumShardStats(sharded.ShardStats); !reflect.DeepEqual(got, sharded.Collector) {
		t.Errorf("SumShardStats != Collector:\nsum   %+v\ntotal %+v", got, sharded.Collector)
	}
	// Per-shard datasets really are a partition: no shard is the fleet.
	for i, ds := range sharded.ShardDatasets {
		if n := len(ds.Machines); n == 0 || n >= len(sharded.Dataset.Machines) {
			t.Errorf("shard %d has %d machines", i, n)
		}
	}
}

// TestShardedDetectCoherent runs the streaming anomaly detectors at one
// and at four shards, on a clean run and on one with the labelled
// anomaly scenarios injected. Lab-aligned shard boundaries keep each
// lab's sample stream in serial order, and the fault decision is made on
// the scheduling chain whatever the shard count, so the detected event
// *set* must match exactly; only cross-lab interleaving (and hence ring
// order) may differ. Events are compared sorted by identity.
func TestShardedDetectCoherent(t *testing.T) {
	run := func(shards, days int, inject bool) []anomaly.Event {
		cfg := shortConfig(2)
		cfg.Days = days
		cfg.Shards = shards
		if inject {
			var err error
			if cfg.Inject, _, err = DefaultAnomalyScenarios(cfg); err != nil {
				t.Fatal(err)
			}
		}
		cfg.Detect = anomaly.New(anomaly.Config{}, nil)
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		evs := cfg.Detect.Ring().Snapshot()
		sort.Slice(evs, func(a, b int) bool {
			x, y := evs[a], evs[b]
			if x.Kind != y.Kind {
				return x.Kind < y.Kind
			}
			if x.Machine != y.Machine {
				return x.Machine < y.Machine
			}
			if x.Lab != y.Lab {
				return x.Lab < y.Lab
			}
			return x.FirstIter < y.FirstIter
		})
		return evs
	}
	for _, tc := range []struct {
		name   string
		days   int
		inject bool
	}{{"clean", 3, false}, {"injected", 12, true}} {
		serial := run(1, tc.days, tc.inject)
		sharded := run(4, tc.days, tc.inject)
		if tc.inject && len(serial) == 0 {
			t.Errorf("%s: injected run detected nothing", tc.name)
		}
		if !reflect.DeepEqual(serial, sharded) {
			t.Errorf("%s: detector event sets differ: serial %d events, sharded %d events\nserial:  %+v\nsharded: %+v",
				tc.name, len(serial), len(sharded), serial, sharded)
		}
	}
}
