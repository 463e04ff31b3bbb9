// Package core is the public face of the reproduction: one-call entry
// points to run the paper's 77-day monitoring experiment, analyse a trace
// (collected or loaded from disk) into every table and figure of the
// paper, and render the results.
//
// The layering mirrors the paper's methodology:
//
//	fleet simulator (lab, machine, behavior)  — the monitored classrooms
//	W32Probe (probe)                          — per-machine metric capture
//	DDC (ddc)                                 — periodic remote collection
//	trace                                     — the collected samples
//	analysis                                  — §4–§5 results
//
// Downstream code (cmd/*, examples/*) should need nothing but this package
// plus the analysis/report types it returns.
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

// Config is the experiment configuration; see experiment.Config.
type Config = experiment.Config

// Result is a finished experiment; see experiment.Result.
type Result = experiment.Result

// DefaultConfig returns the configuration reproducing the paper's setup:
// 169 machines in 11 labs, 77 days, 15-minute sampling.
func DefaultConfig(seed int64) Config { return experiment.Default(seed) }

// RunExperiment simulates the fleet and collects the monitoring trace.
func RunExperiment(cfg Config) (*Result, error) { return experiment.Run(cfg) }

// Report bundles every analysis of the paper's evaluation section.
type Report struct {
	Labs []lab.Spec // nil when analysing a foreign trace

	Table2      analysis.Table2
	SessionAge  analysis.SessionAgeProfile
	Avail       analysis.AvailabilitySeries
	Uptimes     []analysis.MachineUptime
	Sessions    analysis.SessionStats
	PowerCycles analysis.PowerCycleStats
	Weekly      *analysis.WeeklyProfiles
	Equivalence analysis.EquivalenceResult
	Labs2       []analysis.LabUsage // per-lab breakdown (not in the paper)
	Capacity    analysis.CapacityReport
	Survival    *predictor.Model // 1-hour machine-survival predictor
	SurvivalEv  predictor.Evaluation
}

// Analyze runs the full analysis pipeline on a trace. The paper's tables
// and figures come from one pass of the analysis engine (analysis.All)
// over the frozen trace.
func Analyze(d *trace.Dataset) *Report {
	a := analysis.All(d, analysis.Options{})
	r := &Report{
		Table2:      a.Table2,
		SessionAge:  a.SessionAge,
		Avail:       a.Availability,
		Uptimes:     a.Uptimes,
		Sessions:    a.Sessions,
		PowerCycles: a.PowerCycles,
		Weekly:      a.Weekly,
		Equivalence: a.Equivalence,
		Labs2:       a.Labs,
		Capacity:    a.Capacity,
	}
	r.Survival = predictor.Fit(d, time.Hour)
	r.SurvivalEv = r.Survival.Evaluate(d)
	return r
}

// AnalyzeResult analyses an experiment result, attaching the catalogue so
// Table 1 can be rendered too.
func AnalyzeResult(res *Result) *Report {
	r := Analyze(res.Dataset)
	r.Labs = res.Config.Labs
	return r
}

// AnalyzeStream computes the same report out-of-core: it streams a
// TBv1 trace file (plain or gzipped) through analysis.AllStream, so
// peak memory is bounded by the accumulator state, not the trace size.
// workers ≤ 1 is the exact sequential path, bit-identical to Analyze's
// artefacts on a canonical trace; workers > 1 shards by machine (counts
// exact, merged floats within documented epsilon).
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
	return &Report{
		Table2:      a.Table2,
		SessionAge:  a.SessionAge,
		Avail:       a.Availability,
		Uptimes:     a.Uptimes,
		Sessions:    a.Sessions,
		PowerCycles: a.PowerCycles,
		Weekly:      a.Weekly,
		Equivalence: a.Equivalence,
		Labs2:       a.Labs,
		Capacity:    a.Capacity,
	}, nil
}

// StreamResults runs the analysis engine out-of-core over either a TBv1
// trace file (plain or gzipped; workers as in AnalyzeStream) or a
// segment manifest. Manifests are written as uncompressed JSON, so a
// leading '{' is the same content sniff trace.ReadAny keys on — cheap
// and unambiguous against TBv1 magic and the gzip header.
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
	if r.Labs != nil {
		report.Table1(r.Labs).Render(w)
		fmt.Fprintln(w, report.Table1Aggregates(r.Labs))
	}
	report.Table2(r.Table2).Render(w)
	fmt.Fprintf(w, "\n(raw login samples: %d, reclassified as forgotten at >=%s: %d)\n\n",
		r.Table2.Reclass.RawLoginSamples, r.Table2.Threshold, r.Table2.Reclass.Reclassified)

	_, fig2 := report.Figure2(r.SessionAge)
	fig2.Render(w)
	fmt.Fprintf(w, "first session-age bucket at or above 99%% idle: hour %d\n\n",
		r.SessionAge.FirstBucketAtOrAbove(99))

	report.Figure3(r.Avail).Render(w)
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
	report.LabUsageTable(r.Labs2).Render(w)
	fmt.Fprintln(w)
	report.CapacityTable(r.Capacity).Render(w)
	fmt.Fprintf(w, "\nUnused memory fleet-wide: %.1f%% (the paper reports 42.1%%)\n",
		100-r.Table2.Both.RAMLoadPct)

	fmt.Fprintln(w)
	heat := &report.Heatmap{
		Title:  "User-free machines by hour of week (harvest windows)",
		Values: analysis.FreeMachineHeat(r.Avail),
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
		iter := make([]float64, len(r.Avail.Points))
		on := make([]float64, len(r.Avail.Points))
		free := make([]float64, len(r.Avail.Points))
		for i, p := range r.Avail.Points {
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
		for _, u := range r.Labs2 {
			if _, err := fmt.Fprintf(w, "%s,%d,%.2f,%.2f,%.2f,%.2f,%.1f,%.2f\n",
				u.Lab, u.Machines, u.UptimePct, u.OccupiedPct, u.CPUIdlePct,
				u.RAMLoadPct, u.FreeRAMMBPerMachine, u.FreeDiskGBPerMachine); err != nil {
				return err
			}
		}
		return nil
	})
}
