package trace

import (
	"bytes"
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

// TestReadAnySniffs: both formats load through the same entry point.
func TestReadAnySniffs(t *testing.T) {
	d := newDataset()
	var csvBuf bytes.Buffer
	if err := Write(&csvBuf, d); err != nil {
		t.Fatal(err)
	}
	for name, raw := range map[string][]byte{"csv": csvBuf.Bytes(), "tbv1": binBytes(t, d)} {
		got, err := ReadAny(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		requireDatasetsEqual(t, got, d)
	}
}

// TestWriteFileFormats: extension-driven format selection, explicit
// overrides, gzip stacking, and sniffing on the way back in.
func TestWriteFileFormats(t *testing.T) {
	d := newDataset()
	dir := t.TempDir()
	cases := []struct {
		name   string
		format Format
		binary bool
	}{
		{"trace.csv", FormatAuto, false},
		{"trace.tb", FormatAuto, true},
		{"trace.tbv1.gz", FormatAuto, true},
		{"trace.dat", FormatTB, true},
		{"trace.tb.but-csv", FormatCSV, false},
	}
	for _, tc := range cases {
		path := filepath.Join(dir, tc.name)
		if err := WriteFileFormat(path, d, tc.format); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, err := ReadFile(path)
		if err != nil {
			t.Fatalf("%s: read: %v", tc.name, err)
		}
		requireDatasetsEqual(t, got, d)
		// Verify the on-disk format really is what the name promised
		// (gz paths are checked through ReadFile only: the compressed
		// stream hides the inner magic).
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasSuffix(tc.name, ".gz") {
			if len(raw) == 0 || raw[0] != 0x1f {
				t.Errorf("%s: not gzip-compressed", tc.name)
			}
			continue
		}
		if isBin := bytes.HasPrefix(raw, magicTB); isBin != tc.binary {
			t.Errorf("%s: binary=%v, want %v", tc.name, isBin, tc.binary)
		}
	}
}

func TestParseFormat(t *testing.T) {
	for in, want := range map[string]Format{
		"auto": FormatAuto, "": FormatAuto, "csv": FormatCSV,
		"tbv1": FormatTB, "TB": FormatTB, "binary": FormatTB,
	} {
		got, err := ParseFormat(in)
		if err != nil || got != want {
			t.Errorf("ParseFormat(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseFormat("xml"); err == nil {
		t.Error("ParseFormat accepted xml")
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
