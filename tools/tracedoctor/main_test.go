package main

import (
	"os"
	"path/filepath"
	"testing"

	"winlab/internal/trace"
	"winlab/internal/trace/check"
)

// TestCheckFilesCorpus writes the fixture corpus to disk and asserts
// checkFiles returns non-zero for every corrupted trace and zero for
// the clean one — the contract `make doctor`'s negative leg relies on.
func TestCheckFilesCorpus(t *testing.T) {
	dir := t.TempDir()
	if got := writeCorpus(dir); got != 0 {
		t.Fatalf("writeCorpus = %d", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 13 { // clean + ≥12 corrupted fixtures
		t.Fatalf("corpus holds %d files", len(entries))
	}
	opts := check.Options{Limit: 5}
	if got := checkFiles([]string{filepath.Join(dir, "clean.tb")}, opts); got != 0 {
		t.Errorf("checkFiles(clean.tb) = %d, want 0", got)
	}
	for _, e := range entries {
		if e.Name() == "clean.tb" {
			continue
		}
		path := filepath.Join(dir, e.Name())
		if got := checkFiles([]string{path}, opts); got != 1 {
			t.Errorf("checkFiles(%s) = %d, want 1", e.Name(), got)
		}
	}
}

func TestDiffFiles(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.tb")
	b := filepath.Join(dir, "b.tb.gz") // gzipped: diff compares datasets, not bytes
	ds := check.CleanFixture()
	if err := trace.WriteFile(a, ds); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteFile(b, ds); err != nil {
		t.Fatal(err)
	}
	if got := diffFiles(a, b); got != 0 {
		t.Errorf("diffFiles(identical, one gzipped) = %d, want 0", got)
	}
	ds.Samples[0].Uptime += 1e9
	if err := trace.WriteFile(b, ds); err != nil {
		t.Fatal(err)
	}
	if got := diffFiles(a, b); got != 1 {
		t.Errorf("diffFiles(divergent) = %d, want 1", got)
	}
}

func TestParseSeeds(t *testing.T) {
	got, err := parseSeeds("1, 2,3")
	if err != nil || len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("parseSeeds = %v, %v", got, err)
	}
	if _, err := parseSeeds(""); err == nil {
		t.Error("parseSeeds(\"\") accepted")
	}
	if _, err := parseSeeds("x"); err == nil {
		t.Error("parseSeeds(\"x\") accepted")
	}
}
