package trace

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// requireDatasetsEqual compares two datasets field by field (the struct
// itself embeds a mutex and the index cache, so whole-struct DeepEqual
// would compare unexported cache state).
func requireDatasetsEqual(t *testing.T, got, want *Dataset) {
	t.Helper()
	if !reflect.DeepEqual(got.Start, want.Start) || !reflect.DeepEqual(got.End, want.End) ||
		got.Period != want.Period {
		t.Fatalf("header mismatch:\n got %v %v %v\nwant %v %v %v",
			got.Start, got.End, got.Period, want.Start, want.End, want.Period)
	}
	if !reflect.DeepEqual(got.Machines, want.Machines) {
		t.Fatalf("machines mismatch:\n got %+v\nwant %+v", got.Machines, want.Machines)
	}
	if !reflect.DeepEqual(got.Iterations, want.Iterations) {
		t.Fatalf("iterations mismatch:\n got %+v\nwant %+v", got.Iterations, want.Iterations)
	}
	if len(got.Samples) != len(want.Samples) {
		t.Fatalf("samples = %d, want %d", len(got.Samples), len(want.Samples))
	}
	for i := range want.Samples {
		if !reflect.DeepEqual(got.Samples[i], want.Samples[i]) {
			t.Fatalf("sample %d mismatch:\n got %+v\nwant %+v", i, got.Samples[i], want.Samples[i])
		}
	}
}

func binBytes(t *testing.T, d *Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBinaryRoundTripFixture: WriteBinary∘ReadBinary is the identity on
// hand-built datasets covering sessions, sessionless samples, zero-End
// iterations and the empty dataset.
func TestBinaryRoundTripFixture(t *testing.T) {
	full := newDataset()
	full.Samples = append(full.Samples, FromSnapshot(9, snapshotFixture()))

	empty := &Dataset{Start: t0, End: t0.AddDate(0, 0, 7), Period: 15 * time.Minute}

	sessionless := &Dataset{Start: t0, End: t0.AddDate(0, 0, 1), Period: 15 * time.Minute}
	sessionless.Samples = append(sessionless.Samples,
		mkSample("M1", t0.Add(15*time.Minute), t0, time.Minute, ""))

	for name, d := range map[string]*Dataset{
		"full": full, "empty": empty, "sessionless": sessionless,
	} {
		got, err := ReadBinary(bytes.NewReader(binBytes(t, d)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		requireDatasetsEqual(t, got, d)
	}
}

// TestReadAnySniffs: plain and gzipped TBv1 load through the same entry
// point, and the bytes of anything else are refused.
func TestReadAnySniffs(t *testing.T) {
	d := newDataset()
	raw := binBytes(t, d)
	var zbuf bytes.Buffer
	if err := encodeStream(&zbuf, d, true); err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string][]byte{"tbv1": raw, "tbv1-gzip": zbuf.Bytes()} {
		got, err := ReadAny(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		requireDatasetsEqual(t, got, d)
	}
	if _, err := ReadAny(strings.NewReader("H,winlab-trace-1,2003-10-06T08:00:00Z,2003-10-07T08:00:00Z,900\n")); err == nil ||
		!strings.Contains(err.Error(), "not a TBv1 stream") {
		t.Errorf("CSV bytes: err = %v, want \"not a TBv1 stream\"", err)
	}
}

// TestWriteFileFormats: every extension writes TBv1, a trailing ".gz"
// adds gzip, and an unknown Format is refused before any file exists.
func TestWriteFileFormats(t *testing.T) {
	d := newDataset()
	dir := t.TempDir()
	for _, name := range []string{"trace.tb", "trace.tbv1.gz", "trace.dat", "trace.csv", "trace.CSV.GZ"} {
		path := filepath.Join(dir, name)
		if err := WriteFileFormat(path, d, FormatTB); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := ReadFile(path)
		if err != nil {
			t.Fatalf("%s: read: %v", name, err)
		}
		requireDatasetsEqual(t, got, d)
		// The on-disk bytes must be what the name promised (gz paths
		// hide the inner magic, which ReadFile above already decoded).
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if gzipPath(name) {
			if len(raw) == 0 || raw[0] != 0x1f {
				t.Errorf("%s: not gzip-compressed", name)
			}
		} else if !bytes.HasPrefix(raw, magicTB) {
			t.Errorf("%s: not TBv1", name)
		}
	}
	for _, f := range []Format{0, FormatTB + 1} {
		path := filepath.Join(dir, fmt.Sprintf("unknown-%d.tb", f))
		if err := WriteFileFormat(path, d, f); err == nil {
			t.Errorf("format %d accepted", f)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("format %d: file created (stat err %v)", f, err)
		}
	}
}

// TestBinaryRejectsGarbage: malformed TBv1 input must error, not panic,
// and must not allocate absurd amounts on a lying count.
func TestBinaryRejectsGarbage(t *testing.T) {
	valid := binBytes(t, newDataset())
	cases := map[string][]byte{
		"empty":        {},
		"short magic":  []byte("WL"),
		"wrong magic":  []byte("NOPE\x01rest"),
		"bad version":  []byte("WLTB\x63"),
		"header only":  []byte("WLTB\x01"),
		"truncated":    valid[:len(valid)/2],
		"truncated 1b": valid[:len(valid)-1],
		// magic + version + start/end/period, then a sample count of
		// 2^60 with no sample bytes behind it.
		"lying count": append(append([]byte{}, valid[:5]...),
			0x00, 0x00, 0x00, 0x00, // start/end times: zero deltas
			0x00,                                                  // period
			0x00,                                                  // machines
			0x00,                                                  // iterations
			0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10), // huge sample count
		"trailing data": append(append([]byte{}, valid...), 0x00),
	}
	for name, in := range cases {
		if _, err := ReadBinary(bytes.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// A dictionary reference pointing past the dictionary must error.
	bad := append(append([]byte{}, valid[:5]...),
		0x00, 0x00, 0x00, 0x00, // start/end times
		0x00, // period
		0x01, // one machine...
		0x07) // ...whose ID references dict entry 7 of an empty dict
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil ||
		!strings.Contains(err.Error(), "dictionary") {
		t.Errorf("out-of-range dict ref: err = %v", err)
	}
}
