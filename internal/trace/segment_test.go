package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

// shardFixture builds per-shard datasets sharing one iteration clock:
// nIters iterations over the given machine groups, every machine
// answering every iteration. Each dataset is frozen (sorted) the way a
// per-shard DatasetSink leaves it.
func shardFixture(nIters int, groups ...[]string) []*Dataset {
	period := 15 * time.Minute
	end := t0.Add(time.Duration(nIters) * period)
	out := make([]*Dataset, len(groups))
	for g, ids := range groups {
		d := &Dataset{Start: t0, End: end, Period: period}
		for _, id := range ids {
			d.Machines = append(d.Machines, MachineInfo{
				ID: id, Lab: "L" + id[:2], RAMMB: 512, DiskGB: 74.5, IntIndex: 30.5, FPIndex: 33.1,
			})
		}
		for it := 0; it < nIters; it++ {
			at := t0.Add(time.Duration(it) * period)
			d.Iterations = append(d.Iterations, Iteration{
				Iter: it, Start: at, End: at.Add(2 * time.Minute),
				Attempted: len(ids), Responded: len(ids),
			})
			for mi, id := range ids {
				s := mkSample(id, at.Add(time.Duration(mi)*time.Second), t0, time.Duration(it)*time.Minute, "")
				s.Iter = it
				s.Lab = "L" + id[:2]
				d.Samples = append(d.Samples, s)
			}
		}
		d.SortSamples()
		out[g] = d
	}
	return out
}

// TestSegmentsRoundTrip: write shard datasets as segments, compact with
// MergeSegments, and require the canonical result — equal to
// MergeSharded of the in-memory shards, and byte-identical to encoding
// that merged dataset directly.
func TestSegmentsRoundTrip(t *testing.T) {
	shards := shardFixture(3, []string{"01-a", "01-b"}, []string{"02-a"}, []string{"03-a", "03-b"})
	dir := t.TempDir()
	mpath, err := WriteSegments(dir, "run", shards)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ReadManifest(mpath)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Segments) != 3 || m.Period() != 15*time.Minute {
		t.Fatalf("manifest: %d segments period %v", len(m.Segments), m.Period())
	}
	for i, seg := range m.Segments {
		if seg.Shard != i || seg.Machines != len(shards[i].Machines) ||
			seg.Samples != uint64(len(shards[i].Samples)) ||
			seg.FirstIter != 0 || seg.LastIter != 2 {
			t.Errorf("segment %d info wrong: %+v", i, seg)
		}
	}

	var merged bytes.Buffer
	if err := MergeSegments(&merged, m, dir); err != nil {
		t.Fatal(err)
	}
	want, err := MergeSharded(shards...)
	if err != nil {
		t.Fatal(err)
	}
	var direct bytes.Buffer
	if err := WriteBinary(&direct, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(merged.Bytes(), direct.Bytes()) {
		t.Error("compacted trace is not byte-identical to encoding the merged dataset")
	}
	got, err := ReadBinary(bytes.NewReader(merged.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Samples, want.Samples) || !reflect.DeepEqual(got.Iterations, want.Iterations) {
		t.Error("compacted dataset differs from MergeSharded")
	}

	// The shard-aware read path: ReadFile on the manifest materialises
	// the same merged dataset (segment paths resolved against the
	// manifest's directory).
	viaFile, err := ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(viaFile.Samples, want.Samples) || !reflect.DeepEqual(viaFile.Machines, want.Machines) {
		t.Error("ReadFile(manifest) differs from MergeSharded")
	}
}

// TestReadAnyRefusesManifest: ReadFile is the only reader of segment
// manifests. The manifest here names its segments by absolute path, so
// its bytes would resolve from any working directory; ReadFile loads it
// and ReadAny still refuses it.
func TestReadAnyRefusesManifest(t *testing.T) {
	dir := t.TempDir()
	mpath, err := WriteSegments(dir, "run", shardFixture(3, []string{"01-a"}, []string{"02-a"}))
	if err != nil {
		t.Fatal(err)
	}
	m, err := ReadManifest(mpath)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range m.SegmentPaths(dir) {
		m.Segments[i].Path = p
	}
	abs := filepath.Join(dir, "abs.manifest.json")
	if err := WriteManifest(abs, m); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(abs); err != nil {
		t.Fatalf("ReadFile(manifest): %v", err)
	}
	raw, err := os.ReadFile(abs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadAny(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "not a TBv1 stream") {
		t.Errorf("ReadAny(manifest) = %v, want \"not a TBv1 stream\"", err)
	}
}

// TestMergeSegmentsChunked: one shard written as two time chunks — the
// same machines catalogued twice with identical metadata, disjoint
// iteration ranges — compacts into the whole-shard trace.
func TestMergeSegmentsChunked(t *testing.T) {
	whole := shardFixture(4, []string{"01-a", "01-b"})[0]
	early, late := SplitAt(whole, t0.Add(30*time.Minute))
	early.Machines = whole.Machines
	late.Machines = whole.Machines

	var a, b bytes.Buffer
	if err := WriteBinary(&a, early); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&b, late); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := MergeSegmentStreams(&out, []string{"early", "late"}, []io.Reader{
		bytes.NewReader(a.Bytes()), bytes.NewReader(b.Bytes()),
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&out)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Samples, whole.Samples) {
		t.Error("chunked compaction lost or reordered samples")
	}
	if !reflect.DeepEqual(got.Iterations, whole.Iterations) {
		t.Errorf("chunked compaction iterations differ:\ngot  %+v\nwant %+v", got.Iterations, whole.Iterations)
	}
}

// TestMergeSegmentsOverlap: two segments claiming the same machine over
// intersecting iteration ranges must be rejected with an *OverlapError
// carrying machine and iteration coordinates.
func TestMergeSegmentsOverlap(t *testing.T) {
	// Same machine, iterations 0..2 in both segments.
	shards := shardFixture(3, []string{"01-a"}, []string{"01-a"})
	var a, b bytes.Buffer
	if err := WriteBinary(&a, shards[0]); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&b, shards[1]); err != nil {
		t.Fatal(err)
	}
	err := MergeSegmentStreams(io.Discard, []string{"seg-a", "seg-b"}, []io.Reader{
		bytes.NewReader(a.Bytes()), bytes.NewReader(b.Bytes()),
	})
	var oe *OverlapError
	if !errors.As(err, &oe) {
		t.Fatalf("want *OverlapError, got %v", err)
	}
	if oe.Machine != "01-a" || oe.LoA != 0 || oe.HiA != 2 || oe.LoB != 0 || oe.HiB != 2 {
		t.Errorf("overlap coordinates: %+v", oe)
	}
	if oe.SegmentA != "seg-a" || oe.SegmentB != "seg-b" {
		t.Errorf("overlap segments: %q / %q", oe.SegmentA, oe.SegmentB)
	}
	if !strings.Contains(err.Error(), "01-a") || !strings.Contains(err.Error(), "[0,2]") {
		t.Errorf("error lacks coordinates: %v", err)
	}
}

// TestMergeSegmentsConflictingCatalogue: duplicated machines are only
// allowed when the metadata agrees (the chunked-shard case).
func TestMergeSegmentsConflictingCatalogue(t *testing.T) {
	shards := shardFixture(1, []string{"01-a"}, []string{"01-a"})
	shards[1].Machines[0].RAMMB = 1024
	var a, b bytes.Buffer
	if err := WriteBinary(&a, shards[0]); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&b, shards[1]); err != nil {
		t.Fatal(err)
	}
	err := MergeSegmentStreams(io.Discard, nil, []io.Reader{
		bytes.NewReader(a.Bytes()), bytes.NewReader(b.Bytes()),
	})
	if err == nil || !strings.Contains(err.Error(), "conflicting metadata") {
		t.Errorf("conflicting catalogue: err = %v", err)
	}
}

// TestMergeSegmentStreamsTorture drives the compactor through hostile
// inputs using the stream package's one-byte-reader harness: byte-starved
// readers, empty and single-machine segments, truncation mid-stream.
func TestMergeSegmentStreamsTorture(t *testing.T) {
	shards := shardFixture(2, []string{"01-a", "01-b"}, []string{"02-a"})
	empty := &Dataset{Start: t0, End: t0.Add(30 * time.Minute), Period: 15 * time.Minute}
	encode := func(d *Dataset) []byte {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, d); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	segA, segB, segE := encode(shards[0]), encode(shards[1]), encode(empty)

	t.Run("no segments", func(t *testing.T) {
		if err := MergeSegmentStreams(io.Discard, nil, nil); err == nil {
			t.Error("empty merge accepted")
		}
	})

	t.Run("one-byte readers", func(t *testing.T) {
		var out bytes.Buffer
		err := MergeSegmentStreams(&out, nil, []io.Reader{
			iotest.OneByteReader(bytes.NewReader(segA)),
			iotest.OneByteReader(bytes.NewReader(segB)),
			iotest.OneByteReader(bytes.NewReader(segE)),
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReadBinary(&out)
		if err != nil {
			t.Fatal(err)
		}
		want, err := MergeSharded(shards...)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Samples, want.Samples) {
			t.Error("byte-starved merge differs")
		}
	})

	t.Run("empty segments only", func(t *testing.T) {
		var out bytes.Buffer
		if err := MergeSegmentStreams(&out, nil, []io.Reader{bytes.NewReader(segE)}); err != nil {
			t.Fatal(err)
		}
		got, err := ReadBinary(&out)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Samples) != 0 || len(got.Machines) != 0 {
			t.Error("empty merge produced data")
		}
	})

	t.Run("single-machine segments", func(t *testing.T) {
		singles := shardFixture(2, []string{"01-a"}, []string{"02-a"}, []string{"03-a"})
		rs := make([]io.Reader, len(singles))
		for i, d := range singles {
			rs[i] = iotest.OneByteReader(bytes.NewReader(encode(d)))
		}
		var out bytes.Buffer
		if err := MergeSegmentStreams(&out, nil, rs); err != nil {
			t.Fatal(err)
		}
		got, err := ReadBinary(&out)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Machines) != 3 || len(got.Samples) != 6 {
			t.Errorf("merged %d machines %d samples", len(got.Machines), len(got.Samples))
		}
	})

	// Truncation at every prefix length: the compactor must fail cleanly
	// (addressed to the truncated segment), never hang or emit silently
	// short output that ReadBinary would accept.
	t.Run("truncated", func(t *testing.T) {
		for cut := 0; cut < len(segB); cut += 7 {
			var out bytes.Buffer
			err := MergeSegmentStreams(&out, []string{"good", "cut"}, []io.Reader{
				bytes.NewReader(segA),
				iotest.OneByteReader(bytes.NewReader(segB[:cut])),
			})
			if err == nil {
				// The only acceptable "success" would still fail flush's
				// declared-count check; reaching here means corruption.
				t.Fatalf("cut at %d accepted", cut)
			}
			if !strings.Contains(err.Error(), "cut") && !strings.Contains(err.Error(), "sample count") {
				t.Fatalf("cut at %d: unaddressed error %v", cut, err)
			}
		}
	})
}

// TestWriteSegmentsGzip: compressed segment files merge transparently
// (the compactor sniffs the gzip magic per file).
func TestWriteSegmentsGzip(t *testing.T) {
	shards := shardFixture(2, []string{"01-a"}, []string{"02-a"})
	dir := t.TempDir()
	// Write segments by hand with .gz paths plus a matching manifest.
	m := &Manifest{Start: shards[0].Start, End: shards[0].End, PeriodNS: shards[0].Period}
	for i, d := range shards {
		name := fmt.Sprintf("run-%03d.tb.gz", i)
		if err := WriteFileFormat(filepath.Join(dir, name), d, FormatTB); err != nil {
			t.Fatal(err)
		}
		m.Segments = append(m.Segments, segmentInfo(name, i, d))
	}
	mpath := filepath.Join(dir, "run.manifest.json")
	if err := WriteManifest(mpath, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	want, err := MergeSharded(shards...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Samples, want.Samples) {
		t.Error("gzip segment merge differs")
	}
}

// TestManifestRejectsTrailingData: a manifest is one JSON object and
// nothing after it but whitespace, as the TBv1 reader refuses trailing
// data after the sample block. Both manifest readers (ReadManifest and
// ReadFile's sniffed path) share the check.
func TestManifestRejectsTrailingData(t *testing.T) {
	const valid = `{"format":"winlab-segments-1","period_ns":900000000000}`
	dir := t.TempDir()
	for _, tc := range []struct {
		name, body string
		ok         bool
	}{
		{"clean", valid, true},
		{"trailing whitespace", valid + " \n\t\n", true},
		{"second object", valid + `{"format":"other"}`, false},
		{"second object and garbage", valid + `{"format":"other"} garbage`, false},
		{"garbage", valid + " garbage", false},
		{"stray brace", valid + "}", false},
		{"number", valid + " 1", false},
	} {
		path := filepath.Join(dir, "m.manifest.json")
		if err := os.WriteFile(path, []byte(tc.body), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ReadManifest(path)
		_, ferr := ReadFile(path)
		if tc.ok {
			// The manifest names no segments, so ReadFile goes on to fail
			// for that; only the trailing-data verdict is under test.
			if err != nil || ferr != nil && strings.Contains(ferr.Error(), "trailing data") {
				t.Errorf("%s: ReadManifest %v, ReadFile %v; want the manifest accepted", tc.name, err, ferr)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "trailing data") {
			t.Errorf("%s: ReadManifest error %v, want trailing data", tc.name, err)
		}
		if ferr == nil || !strings.Contains(ferr.Error(), "trailing data") {
			t.Errorf("%s: ReadFile error %v, want trailing data", tc.name, ferr)
		}
	}
}

// FuzzDecodeManifest: for any input the manifest decoder either fails or
// returns a manifest that WriteManifest → ReadManifest reproduces
// unchanged (compared by its JSON encoding, so times compare by instant
// and offset rather than by *time.Location pointer).
func FuzzDecodeManifest(f *testing.F) {
	f.Add([]byte(`{"format":"winlab-segments-1","period_ns":900000000000}`))
	f.Add([]byte(`{"format":"winlab-segments-1","start":"2003-10-06T00:00:00Z","end":"2003-10-07T00:00:00+01:00",` +
		`"period_ns":900000000000,"segments":[{"path":"run-000.tb","shard":0,"machines":2,"samples":96,` +
		`"iterations":96,"first_iter":0,"last_iter":95}]}` + "\n"))
	f.Add([]byte(`{"format":"winlab-segments-1","period_ns":900000000000}{"format":"other"} garbage`))
	f.Add([]byte(`{"FORMAT":"winlab-segments-1","period_ns":1,"segments":[],"segments":null}`))
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeManifest(bytes.NewReader(data))
		if err != nil {
			return
		}
		path := filepath.Join(dir, "fuzz.manifest.json")
		if err := WriteManifest(path, m); err != nil {
			t.Fatalf("WriteManifest of an accepted manifest: %v", err)
		}
		back, err := ReadManifest(path)
		if err != nil {
			t.Fatalf("ReadManifest of a written manifest: %v", err)
		}
		want, _ := json.Marshal(m)
		got, _ := json.Marshal(back)
		if !bytes.Equal(got, want) {
			t.Fatalf("round trip changed the manifest:\n got %s\nwant %s", got, want)
		}
	})
}
