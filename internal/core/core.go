// Package core is the reporting face of the reproduction: one-call entry
// points to analyse a trace — collected by experiment.Run (the paper's
// 77-day monitoring experiment) or loaded from disk — into every table
// and figure of the paper, and to render the results.
//
// The layering mirrors the paper's methodology:
//
//	fleet simulator (lab, machine, behavior)  — the monitored classrooms
//	W32Probe (probe)                          — per-machine metric capture
//	DDC (ddc)                                 — periodic remote collection
//	trace                                     — the collected samples
//	analysis                                  — §4–§5 results
//
// Downstream code (cmd/*, examples/*) runs the experiment with package
// experiment and needs nothing else but this package plus the
// analysis/report types it returns.
package core

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"winlab/internal/analysis"
	"winlab/internal/experiment"
	"winlab/internal/lab"
	"winlab/internal/predictor"
	"winlab/internal/report"
	"winlab/internal/trace"
	"winlab/internal/trace/stream"
)

// Report bundles every analysis of the paper's evaluation section: the
// engine's one pass (shared with any later Publish of the same trace, so
// read-only) plus the catalogue and the survival predictor.
type Report struct {
	*analysis.Results

	Catalog    []lab.Spec       // nil when analysing a foreign trace
	Survival   *predictor.Model // 1-hour machine-survival predictor
	SurvivalEv predictor.Evaluation
}

// Analyze runs the full analysis pipeline on a trace. The paper's tables
// and figures come from one pass of the analysis engine (analysis.All)
// over the frozen trace.
func Analyze(d *trace.Dataset) *Report {
	r := &Report{Results: analysis.All(d, analysis.Options{})}
	r.Survival = predictor.Fit(d, time.Hour)
	r.SurvivalEv = r.Survival.Evaluate(d)
	return r
}

// AnalyzeResult analyses an experiment result, attaching the catalogue so
// Table 1 can be rendered too.
func AnalyzeResult(res *experiment.Result) *Report {
	r := Analyze(res.Dataset)
	r.Catalog = res.Config.Labs
	return r
}

// AnalyzeStream computes the same report out-of-core: it streams a
// TBv1 trace file (plain or gzipped) through analysis.AllStream, so
// peak memory is bounded by the accumulator state, not the trace size.
// workers ≤ 1 (0 included) means one worker; workers > 1 shards by
// machine. Every count gives Analyze's artefacts bit for bit on a
// canonical trace.
//
// A segment manifest (labmon -shards -segments) is accepted in place of
// a trace file: the unmerged segments feed the accumulators directly
// via analysis.AllSegments — no compaction step needed. Manifests carry
// their own per-segment concurrency, so -workers is ignored for them.
//
// The survival predictor needs two full passes over a materialised
// dataset, so Survival is nil in a streamed report and Render skips
// that section.
func AnalyzeStream(path string, workers int) (*Report, error) {
	a, err := StreamResults(path, workers)
	if err != nil {
		return nil, err
	}
	return &Report{Results: a}, nil
}

// StreamResults runs the analysis engine out-of-core over either a TBv1
// trace file (plain or gzipped; workers as in AnalyzeStream, so 0 is
// one worker, not GOMAXPROCS) or a segment manifest,
// which ignores workers. Manifests are written as uncompressed JSON, so
// a leading '{' is the same content sniff trace.ReadFile keys on —
// cheap and unambiguous against TBv1 magic and the gzip header.
func StreamResults(path string, workers int) (*analysis.Results, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	var first [1]byte
	_, rerr := io.ReadFull(f, first[:])
	f.Close()
	if rerr == nil && first[0] == '{' {
		m, err := trace.ReadManifest(path)
		if err != nil {
			return nil, err
		}
		return analysis.AllManifest(m, filepath.Dir(path), analysis.Options{})
	}
	c, err := stream.Open(path)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return analysis.AllStream(c, analysis.Options{Workers: workers})
}

// Render writes the full text report: Table 1 (when available), Table 2
// and Figures 2–6 plus the stability analysis.
func (r *Report) Render(w io.Writer) {
	if r.Catalog != nil {
		report.Table1(r.Catalog).Render(w)
		fmt.Fprintln(w, report.Table1Aggregates(r.Catalog))
	}
	report.Table2(r.Table2).Render(w)
	fmt.Fprintf(w, "\n(raw login samples: %d, reclassified as forgotten at >=%s: %d)\n\n",
		r.Table2.Reclass.RawLoginSamples, r.Table2.Threshold, r.Table2.Reclass.Reclassified)

	_, fig2 := report.Figure2(r.SessionAge)
	fig2.Render(w)
	fmt.Fprintf(w, "first session-age bucket at or above 99%% idle: hour %d\n\n",
		r.SessionAge.FirstBucketAtOrAbove(99))

	report.Figure3(r.Availability).Render(w)
	fmt.Fprintln(w)
	report.Figure4Left(r.Uptimes).Render(w)
	fmt.Fprintln(w)
	fmt.Fprintln(w, report.Figure4Right(r.Sessions))
	report.PowerCycles(r.PowerCycles).Render(w)
	fmt.Fprintln(w)
	left, right := report.Figure5(r.Weekly)
	left.Render(w)
	fmt.Fprintln(w)
	right.Render(w)
	fmt.Fprintln(w)
	report.Figure6(r.Equivalence).Render(w)
	fmt.Fprintln(w)
	report.LabUsageTable(r.Labs).Render(w)
	fmt.Fprintln(w)
	report.CapacityTable(r.Capacity).Render(w)
	fmt.Fprintf(w, "\nUnused memory fleet-wide: %.1f%% (the paper reports 42.1%%)\n",
		100-r.Table2.Both.RAMLoadPct)

	fmt.Fprintln(w)
	heat := &report.Heatmap{
		Title:  "User-free machines by hour of week (harvest windows)",
		Values: analysis.FreeMachineHeat(r.Availability),
	}
	heat.Render(w)
	if r.Survival != nil {
		fmt.Fprintf(w, "\n1-hour survival predictor: base rate %.3f, Brier %.4f vs %.4f constant (skill %.1f%%)\n",
			r.SurvivalEv.BaseRate, r.SurvivalEv.Brier, r.SurvivalEv.BaseBrier, 100*r.SurvivalEv.Skill())
		surv := &report.Heatmap{
			Title:  "P(machine up now still up in 1 h) by hour of week",
			Values: hourlyBaseline(r.Survival),
			Lo:     0.5, Hi: 1,
		}
		surv.Render(w)
	}
}

// hourlyBaseline guards against a nil predictor (foreign minimal traces).
func hourlyBaseline(m *predictor.Model) []float64 {
	if m == nil {
		return nil
	}
	return m.HourlyBaseline()
}

// WriteCSVs exports machine-readable versions of every figure into dir,
// creating it if needed.
func (r *Report) WriteCSVs(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, fn func(io.Writer) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return fmt.Errorf("core: writing %s: %w", name, err)
		}
		return f.Close()
	}
	if err := write("fig2_session_age.csv", func(w io.Writer) error {
		hours := make([]float64, len(r.SessionAge.Buckets))
		counts := make([]float64, len(r.SessionAge.Buckets))
		idle := make([]float64, len(r.SessionAge.Buckets))
		for i, b := range r.SessionAge.Buckets {
			hours[i], counts[i], idle[i] = float64(b.Hour), float64(b.Samples), b.CPUIdlePct
		}
		return report.WriteCSV(w, []string{"hour", "samples", "cpu_idle_pct"}, hours, counts, idle)
	}); err != nil {
		return err
	}
	if err := write("fig3_availability.csv", func(w io.Writer) error {
		iter := make([]float64, len(r.Availability.Points))
		on := make([]float64, len(r.Availability.Points))
		free := make([]float64, len(r.Availability.Points))
		for i, p := range r.Availability.Points {
			iter[i], on[i], free[i] = float64(p.Iter), float64(p.PoweredOn), float64(p.UserFree)
		}
		return report.WriteCSV(w, []string{"iteration", "powered_on", "user_free"}, iter, on, free)
	}); err != nil {
		return err
	}
	if err := write("fig4_uptime_ratios.csv", func(w io.Writer) error {
		rank := make([]float64, len(r.Uptimes))
		ratio := make([]float64, len(r.Uptimes))
		nines := make([]float64, len(r.Uptimes))
		for i, u := range r.Uptimes {
			rank[i], ratio[i], nines[i] = float64(i), u.Ratio, u.Nines
		}
		return report.WriteCSV(w, []string{"rank", "uptime_ratio", "nines"}, rank, ratio, nines)
	}); err != nil {
		return err
	}
	if err := write("fig5_weekly.csv", func(w io.Writer) error {
		return report.WeeklyCSV(w,
			[]string{"cpu_idle_pct", "ram_load_pct", "swap_load_pct", "sent_bps", "recv_bps"},
			&r.Weekly.CPUIdlePct, &r.Weekly.RAMLoadPct, &r.Weekly.SwapLoad,
			&r.Weekly.SentBps, &r.Weekly.RecvBps)
	}); err != nil {
		return err
	}
	if err := write("fig6_equivalence.csv", func(w io.Writer) error {
		return report.WeeklyCSV(w,
			[]string{"total", "occupied", "free"},
			&r.Equivalence.Weekly, &r.Equivalence.WeeklyOccupied, &r.Equivalence.WeeklyFree)
	}); err != nil {
		return err
	}
	return write("lab_usage.csv", func(w io.Writer) error {
		if _, err := fmt.Fprintln(w, "lab,machines,uptime_pct,occupied_pct,cpu_idle_pct,ram_load_pct,free_ram_mb,free_disk_gb"); err != nil {
			return err
		}
		for _, u := range r.Labs {
			if _, err := fmt.Fprintf(w, "%s,%d,%.2f,%.2f,%.2f,%.2f,%.1f,%.2f\n",
				u.Lab, u.Machines, u.UptimePct, u.OccupiedPct, u.CPUIdlePct,
				u.RAMLoadPct, u.FreeRAMMBPerMachine, u.FreeDiskGBPerMachine); err != nil {
				return err
			}
		}
		return nil
	})
}
