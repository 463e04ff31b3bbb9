package trace_test

import (
	"bytes"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

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

// TestBinaryEquivalenceSim is the storage-contract test: on real
// simulated traces (seeds 1–3),
//
//	Dataset → TBv1 → Dataset      is the identity,
//	TBv1 → Dataset → TBv1         is byte-identical,
//
// and the frozen Index built from the TBv1-loaded dataset matches the
// original's (same machines, spans and aggregates).
func TestBinaryEquivalenceSim(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		d := simDataset(t, seed)

		// Dataset → TBv1 → Dataset.
		var tb bytes.Buffer
		if err := trace.WriteBinary(&tb, d); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fromTB, err := trace.ReadAny(bytes.NewReader(tb.Bytes()))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		requireEqual(t, seed, "dataset->tbv1->dataset", fromTB, d)

		// TBv1 → Dataset → TBv1, byte level.
		var tb2 bytes.Buffer
		if err := trace.WriteBinary(&tb2, fromTB); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !bytes.Equal(tb.Bytes(), tb2.Bytes()) {
			t.Fatalf("seed %d: TBv1 -> Dataset -> TBv1 is not byte-identical", seed)
		}

		// Index fingerprints: machines, spans, aggregates.
		ixWant, ixTB := d.Freeze(), fromTB.Freeze()
		if !reflect.DeepEqual(ixWant.Machines(), ixTB.Machines()) {
			t.Fatalf("seed %d: index machine sets differ", seed)
		}
		if ixWant.Attempts() != ixTB.Attempts() || ixWant.Days() != ixTB.Days() {
			t.Fatalf("seed %d: index aggregates differ", seed)
		}
		for _, id := range ixWant.Machines() {
			a, b := ixWant.Samples(id), ixTB.Samples(id)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d: machine %s span differs", seed, id)
			}
		}
	}
}

// TestReadFileAllocatesSamplesOnce pins the sized read: a plain TBv1
// file vouches for its sample count, so ReadFile allocates the sample
// array once, exactly sized, and decodes into it. A slice grown by
// doubling while decoding allocates about twice the array.
func TestReadFileAllocatesSamplesOnce(t *testing.T) {
	cfg := experiment.Default(1)
	cfg.Days = 14
	res, err := experiment.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.tb")
	if err := trace.WriteFile(path, res.Dataset); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	got, err := trace.ReadFile(path)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	requireEqual(t, 1, "ReadFile", got, res.Dataset)
	array := uint64(len(got.Samples)) * uint64(unsafe.Sizeof(trace.Sample{}))
	if grew := after.TotalAlloc - before.TotalAlloc; grew > array+8<<20 {
		t.Errorf("ReadFile of %d samples allocated %d bytes, want ≤ the %d-byte sample array + 8 MB", len(got.Samples), grew, array)
	}
}
