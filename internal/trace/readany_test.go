package trace_test

// External test package: these tests exercise trace's format sniffing
// through its public surface and borrow the doctor's fixture corpus
// (winlab/internal/trace/check imports trace, so an in-package test
// file could not import it back).

import (
	"bytes"
	"compress/gzip"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"

	"winlab/internal/trace"
	"winlab/internal/trace/check"
)

// csvHeader is the first line of the retired CSV trace format. Its
// bytes must be refused, plain or gzipped, with a plain "not a TBv1
// stream".
const csvHeader = "H,winlab-trace-1,2003-10-06T08:00:00Z,2003-10-07T08:00:00Z,900\n"

// gzipLayers wraps raw in n gzip layers.
func gzipLayers(t testing.TB, raw []byte, n int) []byte {
	t.Helper()
	for i := 0; i < n; i++ {
		var zbuf bytes.Buffer
		zw := gzip.NewWriter(&zbuf)
		if _, err := zw.Write(raw); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		raw = zbuf.Bytes()
	}
	return raw
}

// encode serialises the dataset as TBv1 wrapped in n gzip layers.
func encode(t testing.TB, d *trace.Dataset, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, d); err != nil {
		t.Fatal(err)
	}
	return gzipLayers(t, buf.Bytes(), n)
}

// TestReadAnyEdgeCases is the table-driven contract for content
// sniffing: which byte streams load, and which fail with an error that
// names the actual problem.
func TestReadAnyEdgeCases(t *testing.T) {
	clean := check.CleanFixture()
	cases := []struct {
		name    string
		data    func(t *testing.T) []byte
		wantErr string // "" = must load as the clean fixture
	}{
		{"csv", func(*testing.T) []byte { return []byte(csvHeader) }, "not a TBv1 stream"},
		{"tbv1", func(t *testing.T) []byte { return encode(t, clean, 0) }, ""},
		{"csv-gzip", func(t *testing.T) []byte { return gzipLayers(t, []byte(csvHeader), 1) }, "not a TBv1 stream"},
		{"tbv1-gzip", func(t *testing.T) []byte { return encode(t, clean, 1) }, ""},
		{"tbv1-double-gzip", func(t *testing.T) []byte { return encode(t, clean, 2) }, ""},
		{"empty", func(*testing.T) []byte { return nil }, "empty stream"},
		{"magic-1-byte", func(*testing.T) []byte { return []byte("W") }, "truncated TBv1"},
		{"magic-2-bytes", func(*testing.T) []byte { return []byte("WL") }, "truncated TBv1"},
		{"magic-3-bytes", func(*testing.T) []byte { return []byte("WLT") }, "truncated TBv1"},
		// A short non-magic prefix is not a truncated binary.
		{"short-csv-ish", func(*testing.T) []byte { return []byte("H") }, "not a TBv1 stream"},
		{"gzip-of-garbage", func(t *testing.T) []byte {
			return gzipLayers(t, []byte("not a trace"), 1)
		}, "not a TBv1 stream"},
		{"truncated-gzip-member", func(*testing.T) []byte {
			// Valid gzip magic, then nothing: the gzip reader must
			// surface the corruption.
			return []byte{0x1f, 0x8b}
		}, "gzip"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// OneByteReader forces the sniffer to assemble the magic
			// across short reads: Peek must loop, never misclassify a
			// TBv1 (or gzip) stream whose magic arrives byte by byte.
			ds, err := trace.ReadAny(iotest.OneByteReader(bytes.NewReader(tc.data(t))))
			if tc.wantErr != "" {
				if err == nil {
					t.Fatalf("loaded successfully, want error containing %q", tc.wantErr)
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error = %q, want it to contain %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("ReadAny: %v", err)
			}
			if msg := check.DiffDatasets(clean, ds); msg != "" {
				t.Errorf("decoded dataset diverges: %s", msg)
			}
			if ds.Samples == nil || len(ds.Samples) != len(clean.Samples) {
				t.Errorf("decoded %d samples, want %d", len(ds.Samples), len(clean.Samples))
			}
		})
	}
}

// TestFilePathExtensionCases pins the path-level behaviour: every name
// writes TBv1, the compression axis matches ".gz" case-insensitively,
// and a misnamed file still loads because ReadFile defers to content
// sniffing.
func TestFilePathExtensionCases(t *testing.T) {
	clean := check.CleanFixture()
	dir := t.TempDir()
	paths := []string{
		"trace.csv", // every extension writes TBv1
		"trace.csv.gz",
		"trace.tb",
		"trace.tb.gz",
		"trace.tbv1.gz",
		"TRACE.TB.GZ",    // case-mangled double extension
		"Trace.Csv.Gz",   // case-mangled compression suffix
		"trace.dat",      // no recognised extension
		"misnamed.trace", // written as .tb.gz bytes below
	}
	for _, name := range paths {
		t.Run(name, func(t *testing.T) {
			p := filepath.Join(dir, name)
			if name == "misnamed.trace" {
				// Gzipped TBv1 bytes under an extension that hints at
				// neither: only content sniffing can load this.
				if err := os.WriteFile(p, encode(t, clean, 1), 0o644); err != nil {
					t.Fatal(err)
				}
			} else if err := trace.WriteFile(p, clean); err != nil {
				t.Fatal(err)
			}
			ds, err := trace.ReadFile(p)
			if err != nil {
				t.Fatalf("ReadFile: %v", err)
			}
			if msg := check.DiffDatasets(clean, ds); msg != "" {
				t.Errorf("decoded dataset diverges: %s", msg)
			}
			// Compression axis sanity: .gz-named files must actually be
			// gzip on disk, and every other file is plain TBv1.
			raw, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			isGz := len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b
			wantGz := strings.HasSuffix(strings.ToLower(name), ".gz") || name == "misnamed.trace"
			if isGz != wantGz {
				t.Errorf("on-disk gzip = %v, want %v", isGz, wantGz)
			}
			if !wantGz && !bytes.HasPrefix(raw, []byte("WLTB")) {
				t.Errorf("on-disk bytes are not TBv1: %q", raw[:min(len(raw), 8)])
			}
		})
	}
}

// FuzzReadAny drives the sniffing front door with arbitrary bytes. The
// seed corpus covers every dispatch arm (TBv1, gzip of it once and
// twice, truncated magic, refused non-TBv1 bytes) plus the doctor's
// serialisable corrupted fixtures: invariant-violating traces must
// still round-trip byte-faithfully — the codec's job is fidelity, the
// checker's job is judgement.
func FuzzReadAny(f *testing.F) {
	clean := check.CleanFixture()
	f.Add([]byte(csvHeader))
	f.Add(encode(f, clean, 0))
	f.Add(encode(f, clean, 2))
	f.Add(encode(f, clean, 1))
	for _, fx := range check.CorruptedFixtures() {
		if fx.Serializable {
			f.Add(encode(f, fx.Dataset, 0))
		}
	}
	f.Add([]byte{})
	f.Add([]byte("W"))
	f.Add([]byte("WLT"))
	f.Add([]byte{0x1f, 0x8b})

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := trace.ReadAny(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever loaded must survive a loss-free re-encode cycle.
		var buf bytes.Buffer
		if err := trace.WriteBinary(&buf, d); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		d2, err := trace.ReadAny(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if msg := check.DiffDatasets(d, d2); msg != "" {
			t.Fatalf("re-encode cycle drifted: %s", msg)
		}
	})
}
