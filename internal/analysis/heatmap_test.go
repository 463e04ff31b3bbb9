package analysis

import (
	"testing"
	"time"
)

func TestHeatmap(t *testing.T) {
	b := newBuilder(7, "m1", "m2")
	boot := t0.Add(-time.Hour)
	// Iterations 0 (Mon 00:00) and 4 (Mon 01:00): m1 answers both, m2
	// answers only iteration 0. Iteration 96*4 lands on Tuesday 00:00 with
	// only m1 up.
	b.sample(0, "m1", boot, 0.9, "", time.Time{})
	b.sample(0, "m2", boot, 0.9, "", time.Time{})
	b.sample(4, "m1", boot, 0.9, "", time.Time{})
	b.sample(96, "m1", boot, 0.9, "", time.Time{})

	hd := All(b.d, Options{}).Heatmap
	if len(hd.Machines) != 2 {
		t.Fatalf("machines = %d, want 2", len(hd.Machines))
	}
	if got := hd.IterationsPerCell[0]; got != 1 { // Monday 00:00
		t.Errorf("iterations in Mon 00h = %d, want 1", got)
	}
	if got := hd.IterationsPerCell[1]; got != 1 { // Monday 01:00
		t.Errorf("iterations in Mon 01h = %d, want 1", got)
	}
	m1, m2 := hd.Machines[0], hd.Machines[1]
	if m1.Machine != "m1" || m2.Machine != "m2" {
		t.Fatalf("machine order: %q, %q", m1.Machine, m2.Machine)
	}
	if m1.Uptime[0] != 1 || m1.Uptime[1] != 1 || m1.Uptime[24] != 1 {
		t.Errorf("m1 cells = %v %v %v, want all 1", m1.Uptime[0], m1.Uptime[1], m1.Uptime[24])
	}
	if m2.Uptime[0] != 1 || m2.Uptime[1] != 0 || m2.Uptime[24] != 0 {
		t.Errorf("m2 cells = %v %v %v, want 1 0 0", m2.Uptime[0], m2.Uptime[1], m2.Uptime[24])
	}
	if len(hd.FreeMachines) != HeatHours {
		t.Errorf("free-machine grid has %d cells, want %d", len(hd.FreeMachines), HeatHours)
	}
	// Monday 00:00: 2 and 1 user-free machines over the two iterations in
	// distinct hours; cell 0 saw only iteration 0 with both machines free.
	if got := hd.FreeMachines[0]; got != 2 {
		t.Errorf("free machines Mon 00h = %v, want 2", got)
	}
}

func TestHeatmapDuplicateSampleDedup(t *testing.T) {
	b := newBuilder(1, "m1")
	boot := t0.Add(-time.Hour)
	b.sample(0, "m1", boot, 0.9, "", time.Time{})
	// Duplicate sample for the same iteration must not double-count.
	b.sample(0, "m1", boot, 0.9, "", time.Time{})
	hd := All(b.d, Options{}).Heatmap
	if got := hd.Machines[0].Uptime[0]; got != 1 {
		t.Errorf("uptime with duplicate sample = %v, want 1", got)
	}
}

func TestUptimeHistogram(t *testing.T) {
	us := []MachineUptime{
		{Ratio: 0}, {Ratio: 0.04}, {Ratio: 0.5}, {Ratio: 0.99}, {Ratio: 1.0},
		{Ratio: -0.1}, {Ratio: 1.5}, // clamped
	}
	h := UptimeHistogram(us, 20)
	if len(h) != 20 {
		t.Fatalf("bins = %d, want 20", len(h))
	}
	if h[0] != 3 { // 0, 0.04, -0.1
		t.Errorf("bin 0 = %d, want 3", h[0])
	}
	if h[10] != 1 {
		t.Errorf("bin 10 = %d, want 1", h[10])
	}
	if h[19] != 3 { // 0.99, 1.0, 1.5
		t.Errorf("bin 19 = %d, want 3", h[19])
	}
	total := 0
	for _, n := range h {
		total += n
	}
	if total != len(us) {
		t.Errorf("histogram mass = %d, want %d", total, len(us))
	}
}
