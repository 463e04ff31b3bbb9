package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"winlab/internal/experiment"
)

func runShort(t *testing.T) *experiment.Result {
	t.Helper()
	cfg := experiment.Default(1)
	cfg.Days = 3
	res, err := experiment.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestAnalyzeAndRender(t *testing.T) {
	res := runShort(t)
	rep := AnalyzeResult(res)
	var buf bytes.Buffer
	rep.Render(&buf)
	out := buf.String()
	for _, want := range []string{
		"Table 1", "Table 2", "Figure 2", "Figure 3", "Figure 4",
		"Figure 5", "Figure 6", "SMART power-cycle analysis",
		"raw login samples",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if rep.Table2.Both.Samples != len(res.Dataset.Samples) {
		t.Errorf("table 2 samples %d != dataset %d", rep.Table2.Both.Samples, len(res.Dataset.Samples))
	}
}

func TestAnalyzeWithoutLabs(t *testing.T) {
	res := runShort(t)
	rep := Analyze(res.Dataset) // foreign trace: no catalogue
	var buf bytes.Buffer
	rep.Render(&buf)
	if strings.Contains(buf.String(), "Table 1") {
		t.Error("Table 1 rendered without a catalogue")
	}
}

func TestWriteCSVs(t *testing.T) {
	res := runShort(t)
	rep := AnalyzeResult(res)
	dir := filepath.Join(t.TempDir(), "figs")
	if err := rep.WriteCSVs(dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"fig2_session_age.csv", "fig3_availability.csv",
		"fig4_uptime_ratios.csv", "fig5_weekly.csv", "fig6_equivalence.csv",
		"lab_usage.csv",
	} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		lines := bytes.Count(data, []byte("\n"))
		if lines < 2 {
			t.Errorf("%s: only %d lines", name, lines)
		}
	}
}

func TestComparePaper(t *testing.T) {
	res := runShort(t)
	rep := AnalyzeResult(res)
	var buf bytes.Buffer
	rep.ComparePaper(&buf)
	out := buf.String()
	for _, want := range []string{"Paper vs measured", "CPU idle, both (%)", "Equivalence, total"} {
		if !strings.Contains(out, want) {
			t.Errorf("comparison missing %q", want)
		}
	}
	// Even a 3-day weekday-only run must land near the paper's idleness
	// (slightly lower is expected: the high-idleness weekend is missing).
	if got := rep.Table2.Both.CPUIdlePct; got < 95.5 || got > 99.5 {
		t.Errorf("cpu idleness = %.2f on short run, want ≈96–98", got)
	}
}
