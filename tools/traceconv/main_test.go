package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"winlab/internal/experiment"
	"winlab/internal/trace"
	"winlab/internal/trace/check"
)

// TestCSVExportPinned: the CSV export is byte-identical to the trace
// package's CSV writer from before TBv1 became the only trace format.
// The SHA-256 digests were recorded from that writer once; never
// regenerate them from the code under test.
func TestCSVExportPinned(t *testing.T) {
	cfg := experiment.Default(1)
	cfg.Days = 2
	res, err := experiment.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		d    *trace.Dataset
		sum  string
	}{
		{"clean-fixture", check.CleanFixture(), "d7bdd6e83683fb417e6c0a543458e0207681a43fb0eedb91672cead127167c0c"},
		{"seed1-2days", res.Dataset, "720234b947c1ecd686c78d172bd57c65471ded23348af69bd938937e833bc515"},
	} {
		var buf bytes.Buffer
		if err := writeCSV(&buf, tc.d); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != tc.sum {
			t.Errorf("%s: SHA-256 = %s, pinned %s", tc.name, got, tc.sum)
		}
	}
}

// TestCreateGzipByName: create compresses exactly the ".gz" names (any
// case) and picks the CSV export by name only.
func TestCreateGzipByName(t *testing.T) {
	dir := t.TempDir()
	for name, wantGz := range map[string]bool{"t.csv": false, "t.csv.gz": true, "T.CSV.GZ": true} {
		path := filepath.Join(dir, name)
		if !csvName(path) {
			t.Errorf("%s: not taken for the CSV export", name)
		}
		if err := create(path, func(w io.Writer) error {
			return writeCSV(w, check.CleanFixture())
		}); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if isGz := bytes.HasPrefix(raw, []byte{0x1f, 0x8b}); isGz != wantGz {
			t.Errorf("%s: gzip = %v, want %v", name, isGz, wantGz)
		}
	}
	for _, name := range []string{"t.tb", "t.tb.gz", "t.csv.tb", "t.dat"} {
		if csvName(name) {
			t.Errorf("%s: taken for the CSV export", name)
		}
	}
}
