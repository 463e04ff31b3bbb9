//go:build linux

package hostprobe

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"winlab/internal/probe"
)

func TestSnapshotLiveHost(t *testing.T) {
	now := time.Now()
	sn, err := Snapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	if sn.ID == "" {
		t.Error("no hostname")
	}
	if sn.Uptime <= 0 {
		t.Errorf("uptime = %v", sn.Uptime)
	}
	if sn.CPUIdle < 0 || sn.CPUIdle > sn.Uptime+time.Minute {
		t.Errorf("cpu idle %v vs uptime %v", sn.CPUIdle, sn.Uptime)
	}
	if sn.RAMMB <= 0 || sn.MemLoadPct < 0 || sn.MemLoadPct > 100 {
		t.Errorf("memory: %d MB at %d%%", sn.RAMMB, sn.MemLoadPct)
	}
	if sn.DiskGB <= 0 || sn.FreeDiskGB < 0 || sn.FreeDiskGB > sn.DiskGB {
		t.Errorf("disk: %v free of %v", sn.FreeDiskGB, sn.DiskGB)
	}
	if !sn.BootTime.Before(now) {
		t.Error("boot time in the future")
	}
	// The live snapshot must survive the probe wire format.
	back, err := probe.NewParser().ParseBytes(probe.AppendRender(nil, sn))
	if err != nil {
		t.Fatalf("live snapshot unparseable: %v", err)
	}
	if back.ID != sn.ID || back.RAMMB != sn.RAMMB {
		t.Error("round trip mismatch")
	}
}

func TestSnapshotCountersMonotone(t *testing.T) {
	a, err := Snapshot(time.Now())
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	b, err := Snapshot(time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if b.CPUIdle < a.CPUIdle {
		t.Errorf("cpu idle went backwards: %v -> %v", a.CPUIdle, b.CPUIdle)
	}
	if b.Uptime < a.Uptime {
		t.Errorf("uptime went backwards")
	}
	if b.RecvBytes < a.RecvBytes || b.SentBytes < a.SentBytes {
		t.Errorf("net counters went backwards")
	}
}

// writeFixtures fabricates a /proc-like directory with known contents.
func writeFixtures(t *testing.T) Paths {
	t.Helper()
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	return Paths{
		Uptime: write("uptime", "7200.50 14000.00\n"),
		Stat: write("stat", `cpu  1000 0 500 360000 20000 0 0 0 0 0
cpu0 500 0 250 180000 10000 0 0 0 0 0
cpu1 500 0 250 180000 10000 0 0 0 0 0
intr 12345
`),
		Meminfo: write("meminfo", `MemTotal:        2097152 kB
MemFree:          524288 kB
MemAvailable:    1048576 kB
SwapTotal:       1048576 kB
SwapFree:         786432 kB
`),
		NetDev: write("netdev", `Inter-|   Receive                                                |  Transmit
 face |bytes    packets errs drop fifo frame compressed multicast|bytes    packets errs drop fifo colls carrier compressed
    lo:  999999    1000    0    0    0     0          0         0   999999    1000    0    0    0     0       0          0
  eth0: 5000000    4000    0    0    0     0          0         0  2500000    3000    0    0    0     0       0          0
  eth1: 1000000    1000    0    0    0     0          0         0   500000     800    0    0    0     0       0          0
`),
		CPUInfo: write("cpuinfo", `processor : 0
model name : Intel Pentium 4 (test)
cpu MHz    : 2400.000
`),
		RootFS: dir,
	}
}

func TestSnapshotFromFixtures(t *testing.T) {
	p := writeFixtures(t)
	now := time.Now()
	sn, err := SnapshotFrom(p, now)
	if err != nil {
		t.Fatal(err)
	}
	if sn.Uptime != 7200*time.Second+500*time.Millisecond {
		t.Errorf("uptime = %v", sn.Uptime)
	}
	// Idle: (360000 + 20000) ticks / 100 HZ / 2 CPUs = 1900 s.
	if sn.CPUIdle != 1900*time.Second {
		t.Errorf("cpu idle = %v, want 1900s", sn.CPUIdle)
	}
	if sn.RAMMB != 2048 {
		t.Errorf("RAM = %d MB", sn.RAMMB)
	}
	if sn.MemLoadPct != 50 { // (2097152-1048576)/2097152
		t.Errorf("mem load = %d%%", sn.MemLoadPct)
	}
	if sn.SwapMB != 1024 || sn.SwapLoadPct != 25 {
		t.Errorf("swap: %d MB at %d%%", sn.SwapMB, sn.SwapLoadPct)
	}
	// Net: loopback excluded; eth0+eth1.
	if sn.RecvBytes != 6000000 || sn.SentBytes != 3000000 {
		t.Errorf("net: rx=%d tx=%d", sn.RecvBytes, sn.SentBytes)
	}
	if len(sn.MACs) != 2 {
		t.Errorf("interfaces = %v", sn.MACs)
	}
	if sn.CPUModel != "Intel Pentium 4 (test)" || sn.CPUGHz != 2.4 {
		t.Errorf("cpu: %q %v GHz", sn.CPUModel, sn.CPUGHz)
	}
	if sn.DiskGB <= 0 {
		t.Errorf("disk = %v", sn.DiskGB)
	}
}

func TestSnapshotFromMissingFiles(t *testing.T) {
	p := DefaultPaths()
	p.Uptime = filepath.Join(t.TempDir(), "nope")
	if _, err := SnapshotFrom(p, time.Now()); err == nil {
		t.Error("missing uptime file accepted")
	}
}
