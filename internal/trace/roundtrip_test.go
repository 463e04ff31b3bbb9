package trace_test

import (
	"bytes"
	"reflect"
	"testing"

	"winlab/internal/experiment"
	"winlab/internal/trace"
)

// simDataset runs the paper's simulated experiment for a few days and
// returns its trace — a realistic dataset with sessions, reboots,
// outages, parse-error bookkeeping and multi-lab machine metadata.
func simDataset(t *testing.T, seed int64) *trace.Dataset {
	t.Helper()
	cfg := experiment.Default(seed)
	cfg.Days = 2
	res, err := experiment.Run(cfg)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return res.Dataset
}

func requireEqual(t *testing.T, seed int64, stage string, got, want *trace.Dataset) {
	t.Helper()
	if !reflect.DeepEqual(got.Start, want.Start) || !reflect.DeepEqual(got.End, want.End) ||
		got.Period != want.Period {
		t.Fatalf("seed %d: %s: header mismatch", seed, stage)
	}
	if !reflect.DeepEqual(got.Machines, want.Machines) {
		t.Fatalf("seed %d: %s: machines mismatch", seed, stage)
	}
	if !reflect.DeepEqual(got.Iterations, want.Iterations) {
		t.Fatalf("seed %d: %s: iterations mismatch (incl. End/ParseErrors)", seed, stage)
	}
	if len(got.Samples) != len(want.Samples) {
		t.Fatalf("seed %d: %s: samples = %d, want %d", seed, stage, len(got.Samples), len(want.Samples))
	}
	for i := range want.Samples {
		if !reflect.DeepEqual(got.Samples[i], want.Samples[i]) {
			t.Fatalf("seed %d: %s: sample %d mismatch:\n got %+v\nwant %+v",
				seed, stage, i, got.Samples[i], want.Samples[i])
		}
	}
}

// TestBinaryEquivalenceSim is the PR's storage-contract test: on real
// simulated traces (seeds 1–3),
//
//	Dataset → TBv1 → Dataset      is the identity,
//	CSV → TBv1 → CSV              is byte-identical,
//
// and the frozen Index built from a TBv1-loaded dataset is
// fingerprint-identical to the CSV-loaded one (same machines, spans,
// aggregates and interval endpoints).
func TestBinaryEquivalenceSim(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		d := simDataset(t, seed)

		// Dataset → TBv1 → Dataset.
		var tb bytes.Buffer
		if err := trace.WriteBinary(&tb, d); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fromTB, err := trace.ReadBinary(bytes.NewReader(tb.Bytes()))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		requireEqual(t, seed, "dataset->tbv1->dataset", fromTB, d)

		// CSV → TBv1 → CSV, byte level.
		var csv1 bytes.Buffer
		if err := trace.Write(&csv1, d); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fromCSV, err := trace.ReadAny(bytes.NewReader(csv1.Bytes()))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var tb2 bytes.Buffer
		if err := trace.WriteBinary(&tb2, fromCSV); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		viaTB, err := trace.ReadAny(bytes.NewReader(tb2.Bytes()))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var csv2 bytes.Buffer
		if err := trace.Write(&csv2, viaTB); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !bytes.Equal(csv1.Bytes(), csv2.Bytes()) {
			t.Fatalf("seed %d: CSV -> TBv1 -> CSV is not byte-identical", seed)
		}

		// Index fingerprints: machines, spans, aggregates.
		ixCSV, ixTB := fromCSV.Freeze(), viaTB.Freeze()
		if !reflect.DeepEqual(ixCSV.Machines(), ixTB.Machines()) {
			t.Fatalf("seed %d: index machine sets differ", seed)
		}
		if ixCSV.Attempts() != ixTB.Attempts() || ixCSV.Days() != ixTB.Days() {
			t.Fatalf("seed %d: index aggregates differ", seed)
		}
		for _, id := range ixCSV.Machines() {
			a, b := ixCSV.Samples(id), ixTB.Samples(id)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d: machine %s span differs", seed, id)
			}
		}
		// Size: the binary encoding must stay well under the CSV size
		// (the acceptance target is ≤40%; the benchmark records the
		// exact ratio).
		ratio := float64(tb.Len()) / float64(csv1.Len())
		t.Logf("seed %d: TBv1 %d bytes, CSV %d bytes (%.1f%%)", seed, tb.Len(), csv1.Len(), 100*ratio)
		if ratio > 0.40 {
			t.Errorf("seed %d: TBv1/CSV size ratio %.1f%% exceeds 40%%", seed, 100*ratio)
		}
	}
}
