package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"winlab/internal/machine"
)

func snapshotFixture() machine.Snapshot {
	return machine.Snapshot{
		Time:         t0.Add(30 * time.Minute),
		ID:           "L01-M07",
		Lab:          "L01",
		BootTime:     t0,
		Uptime:       30 * time.Minute,
		CPUIdle:      29 * time.Minute,
		MemLoadPct:   59,
		SwapLoadPct:  26,
		DiskGB:       74.5,
		FreeDiskGB:   54.25,
		PowerCycles:  289,
		PowerOnHours: 1931,
		SentBytes:    12345,
		RecvBytes:    67890,
		SessionUser:  "u",
		SessionStart: t0.Add(3 * time.Minute),
	}
}

// roundTripFile writes d to a file under the given name and loads it back.
func roundTripFile(t *testing.T, name string, d *Dataset) *Dataset {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := WriteFile(path, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestWriteReadRoundTrip(t *testing.T) {
	d := newDataset()
	d.Samples = append(d.Samples, FromSnapshot(9, snapshotFixture()))
	got, err := ReadAny(bytes.NewReader(binBytes(t, d)))
	if err != nil {
		t.Fatal(err)
	}
	requireDatasetsEqual(t, got, d) // iteration 1's End is unset
}

func TestWriteReadFile(t *testing.T) {
	d := newDataset()
	requireDatasetsEqual(t, roundTripFile(t, "trace.tb", d), d)
}

func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile(filepath.Join(t.TempDir(), "nope.tb")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestRoundTripEmptyDataset(t *testing.T) {
	d := &Dataset{Start: t0, End: t0.AddDate(0, 0, 7), Period: 15 * time.Minute}
	requireDatasetsEqual(t, roundTripFile(t, "empty.tb", d), d)
}

func TestSessionlessSampleRoundTrip(t *testing.T) {
	d := &Dataset{Start: t0, End: t0.AddDate(0, 0, 1), Period: 15 * time.Minute}
	d.Samples = append(d.Samples, mkSample("M1", t0.Add(15*time.Minute), t0, time.Minute, ""))
	s := roundTripFile(t, "sessionless.tb", d).Samples[0]
	if s.HasSession() || !s.SessionStart.IsZero() {
		t.Errorf("sessionless sample gained a session: %+v", s)
	}
}

func TestGzipRoundTrip(t *testing.T) {
	d := newDataset()
	plain := filepath.Join(t.TempDir(), "trace.tb")
	gz := filepath.Join(t.TempDir(), "trace.tb.gz")
	if err := WriteFile(plain, d); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(gz, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(gz)
	if err != nil {
		t.Fatal(err)
	}
	requireDatasetsEqual(t, got, d)
	pi, err := os.Stat(plain)
	if err != nil {
		t.Fatal(err)
	}
	gi, err := os.Stat(gz)
	if err != nil {
		t.Fatal(err)
	}
	if gi.Size() >= pi.Size() {
		t.Errorf("gzip did not compress: %d >= %d", gi.Size(), pi.Size())
	}
}

func TestGzipRejectsCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.gz")
	if err := os.WriteFile(path, []byte("not gzip at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Error("corrupt gzip accepted")
	}
}
