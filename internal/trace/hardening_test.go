package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// allocBomb is a syntactically plausible TBv1 prefix whose leading
// sample count claims 2^63 samples. Before clampPrealloc the decoder
// would try to reserve the whole slice up front; it must now fail with
// a bounded allocation instead. The same bytes live in
// testdata/fuzz/FuzzReadBinary/alloc-bomb-sample-count.
func allocBomb() []byte {
	b := []byte("WLTB\x01")
	b = append(b, 0, 0, 0, 0, 0) // header times + period
	b = append(b, 0, 0)          // machine count, iteration count
	b = append(b, bytes.Repeat([]byte{0x80}, 9)...)
	b = append(b, 0x01) // sample count = 1<<63
	return b
}

func TestReadBinaryAllocBomb(t *testing.T) {
	counts := []struct {
		name string
		data []byte
	}{
		{"samples", allocBomb()},
		// The same lie in the machine-count position.
		{"machines", append([]byte("WLTB\x01\x00\x00\x00\x00\x00"),
			append(bytes.Repeat([]byte{0x80}, 9), 0x01)...)},
	}
	for _, tc := range counts {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			d, err := ReadBinary(bytes.NewReader(tc.data))
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("decoded a %d-byte bomb into %d samples", len(tc.data), len(d.Samples))
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
				t.Errorf("decoder allocated %d bytes servicing a lying count; want bounded preallocation", grew)
			}
		})
	}

	// From a file, ReadFile knows the input's size. The bomb's count is
	// one its 22 bytes cannot hold, so it takes the growth path.
	dir := t.TempDir()
	t.Run("file", func(t *testing.T) {
		path := filepath.Join(dir, "bomb.tb")
		if err := os.WriteFile(path, allocBomb(), 0o644); err != nil {
			t.Fatal(err)
		}
		bombAllocs(t, path, 4<<20)
	})
	// A count the file's size can hold, over a garbage body, gets its
	// sample array — and no more — before the first sample fails.
	t.Run("padded file", func(t *testing.T) {
		const count = 50000
		data := binary.AppendUvarint([]byte("WLTB\x01\x00\x00\x00\x00\x00\x00\x00"), count)
		data = append(data, bytes.Repeat([]byte{0xff}, count*tbMinSampleWire)...)
		path := filepath.Join(dir, "padded.tb")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		bombAllocs(t, path, count*uint64(unsafe.Sizeof(Sample{}))+4<<20)
	})
}

// bombAllocs fails unless ReadFile refuses the file at path having
// allocated at most limit bytes.
func bombAllocs(t *testing.T, path string, limit uint64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d, err := ReadFile(path)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("decoded a bomb into %d samples", len(d.Samples))
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > limit {
		t.Errorf("decoder allocated %d bytes servicing a lying count, want ≤ %d", grew, limit)
	}
}

func TestClampPrealloc(t *testing.T) {
	for _, tc := range []struct {
		n    uint64
		want int
	}{
		{0, 0}, {1, 1}, {tbPrealloc, tbPrealloc},
		{tbPrealloc + 1, tbPrealloc}, {1 << 63, tbPrealloc},
	} {
		if got := clampPrealloc(tc.n); got != tc.want {
			t.Errorf("clampPrealloc(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

// TestBinaryCursor checks the incremental decoder against the batch
// one: same header metadata, same samples in the same order, clean EOF.
func TestBinaryCursor(t *testing.T) {
	d := newDataset()
	d.Samples = append(d.Samples, FromSnapshot(9, snapshotFixture()))
	var buf bytes.Buffer
	if err := WriteBinary(&buf, d); err != nil {
		t.Fatal(err)
	}
	want, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	c, err := NewBinaryCursor(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !c.Start().Equal(want.Start) || !c.End().Equal(want.End) || c.Period() != want.Period {
		t.Errorf("header times/period diverge from ReadBinary")
	}
	if len(c.Machines()) != len(want.Machines) || len(c.Iterations()) != len(want.Iterations) {
		t.Errorf("catalogue sizes diverge")
	}
	if c.DeclaredSamples() != uint64(len(want.Samples)) {
		t.Errorf("DeclaredSamples = %d, want %d", c.DeclaredSamples(), len(want.Samples))
	}
	var got []Sample
	var s Sample
	for {
		ok, err := c.Next(&s)
		if err != nil {
			t.Fatalf("Next after %d samples: %v", len(got), err)
		}
		if !ok {
			break
		}
		got = append(got, s)
	}
	if len(got) != len(want.Samples) {
		t.Fatalf("cursor yielded %d samples, ReadBinary %d", len(got), len(want.Samples))
	}
	for i := range got {
		if fmt.Sprintf("%+v", got[i]) != fmt.Sprintf("%+v", want.Samples[i]) {
			t.Fatalf("sample %d diverges:\ncursor: %+v\nbatch:  %+v", i, got[i], want.Samples[i])
		}
	}
	// Next past EOF stays a clean stop, not an error.
	if ok, err := c.Next(&s); ok || err != nil {
		t.Errorf("Next past EOF = (%v, %v), want (false, nil)", ok, err)
	}
}

func TestBinaryCursorTrailingData(t *testing.T) {
	d := newDataset()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, d); err != nil {
		t.Fatal(err)
	}
	data := append(buf.Bytes(), 0xFF)
	c, err := NewBinaryCursor(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var s Sample
	var last error
	for {
		ok, err := c.Next(&s)
		if err != nil {
			last = err
			break
		}
		if !ok {
			break
		}
	}
	if last == nil || !strings.Contains(last.Error(), "trailing data") {
		t.Fatalf("trailing byte not reported; err = %v", last)
	}
	// The error must be sticky.
	if _, err := c.Next(&s); err == nil {
		t.Error("error did not stick")
	}
}

// failWriter fails every Write once more than limit bytes have been
// accepted, simulating a device that fills up mid-stream.
type failWriter struct {
	limit int
	n     int
}

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n+len(p) > w.limit {
		room := w.limit - w.n
		if room < 0 {
			room = 0
		}
		w.n = w.limit
		return room, fmt.Errorf("failWriter: limit %d exceeded", w.limit)
	}
	w.n += len(p)
	return len(p), nil
}

// TestEncodeStreamErrorPropagation drives both encode branches (TBv1
// plain and gzipped) into a writer that fails at several offsets —
// including 0, so gzip's own header write fails, and a limit large
// enough that only the final Flush/Close can observe the error. Every
// combination must surface a non-nil error to the caller; a lost error
// here means a silently truncated trace file.
func TestEncodeStreamErrorPropagation(t *testing.T) {
	d := newDataset()
	d.Samples = append(d.Samples, FromSnapshot(9, snapshotFixture()))

	for _, gz := range []bool{false, true} {
		// The full encoded size, so "fail at the last byte" offsets can
		// be derived rather than guessed.
		var buf bytes.Buffer
		if err := encodeStream(&buf, d, gz); err != nil {
			t.Fatalf("clean encode gz=%v: %v", gz, err)
		}
		full := buf.Len()
		for _, limit := range []int{0, 1, 7, full / 2, full - 1} {
			w := &failWriter{limit: limit}
			if err := encodeStream(w, d, gz); err == nil {
				t.Errorf("gz=%v limit=%d/%d: write failure swallowed", gz, limit, full)
			}
		}
	}
}

// TestWriteFileFormatPropagatesCreateError: the caller must see path
// errors, not a silent no-op.
func TestWriteFileFormatPropagatesCreateError(t *testing.T) {
	d := newDataset()
	if err := WriteFileFormat(t.TempDir()+"/no/such/dir/x.tb", d, FormatTB); err == nil {
		t.Fatal("missing parent directory not reported")
	}
}
