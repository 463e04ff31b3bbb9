package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// metricDef names a metric and its unit. BENCHMARK.json declares the same
// names (the smoke test compares the two lists).
type metricDef struct{ Name, Unit string }

var workloadNames = []string{"paper_batch", "reanalyze", "live_publish", "grid_shards"}

// endToEndDefs are reported by every workload's untraced run.
var endToEndDefs = []metricDef{
	{"us_per_sample", "us"},
	{"setup_s", "s"},
}

// layerDefs are the metrics of single layers, module name as prefix. A
// metric a workload never enters (no such span, no such phase) reads 0
// there.
var layerDefs = []metricDef{
	{"sim.events", "count"}, {"sim.events_per_s", "1/s"}, {"behavior.model_only_s", "s"},
	{"probe.render_ns", "ns"}, {"probe.parse_ns", "ns"}, {"probe.render_allocs", "count"},
	{"probe.parse_allocs", "count"}, {"probe.report_bytes", "B"},
	{"ddc.collect_s", "s"}, {"ddc.collect_self_s", "s"}, {"ddc.sweep_us", "us"}, {"ddc.sweep_allocs", "count"},
	{"ddc.shard_collect_s", "s"}, {"ddc.sink_clone_ms", "ms"},
	{"ddc.samples", "count"}, {"ddc.attempts", "count"}, {"ddc.timeouts", "count"},
	{"anomaly.sample_ns", "ns"}, {"anomaly.events", "count"},
	{"trace.write_tb_s", "s"}, {"trace.write_tb_mb_per_s", "MB/s"}, {"trace.read_tb_s", "s"},
	{"trace.cursor_mb_per_s", "MB/s"}, {"trace.freeze_ms", "ms"}, {"trace.tb_bytes", "B"},
	{"trace.tb_bytes_per_sample", "B"}, {"trace.segments", "count"}, {"trace.segment_write_s", "s"},
	{"trace.merge_s", "s"}, {"trace.merge_mb_per_s", "MB/s"}, {"trace.check_stream_s", "s"},
	{"analysis.all_ms", "ms"}, {"analysis.all_allocs", "count"}, {"analysis.allstream_w1_ms", "ms"},
	{"analysis.allstream_w2_ms", "ms"}, {"analysis.table2_ms", "ms"}, {"analysis.heatmap_ms", "ms"},
	{"query.publish_us", "us"}, {"query.cold_build_ms", "ms"}, {"query.cold_encode_ms", "ms"},
	{"query.body_bytes", "B"}, {"query.warm_inproc_ns", "ns"}, {"query.warm_inproc_allocs", "count"},
	{"query.revalidate_ns", "ns"}, {"query.events_us", "us"}, {"query.epochs", "count"},
	{"rt.cpu_s", "s"}, {"rt.alloc_mb", "MB"}, {"rt.mallocs", "count"}, {"rt.gc_cycles", "count"},
	{"rt.gc_pause_ms", "ms"}, {"rt.peak_rss_mb", "MB"},
	{"trace_overhead_pct", "%"},
	{"failed_share", "1"},
}

// userDefs are what a user of one workload sees: ISSUE 11's end-to-end
// metrics. They cannot be end-to-end metrics of the benchmark contract,
// which wants every end-to-end metric from every workload and steady
// across seeds, so the driver gets them with the per-layer metrics. They
// come from the untraced pass, and the suite keeps them for every run.
var userDefs = []metricDef{
	{"round_s", "s"},
	{"stream_analyze_s", "s"}, {"batch_analyze_s", "s"}, {"stream_peak_rss_mb", "MB"},
	{"fresh_p50_ms", "ms"}, {"fresh_p90_ms", "ms"},
	{"serve_p50_us", "us"}, {"serve_p99_us", "us"}, {"serve_req_per_s", "1/s"},
}

// perLayerDefs are reported by every workload's traced run.
var perLayerDefs = append(append([]metricDef(nil), layerDefs...), userDefs...)

// exactCounts are per-layer metrics that a seed fixes exactly: -compare
// demands they match between two result sets of the same seeds.
var exactCounts = map[string]bool{
	"sim.events": true, "probe.report_bytes": true,
	"ddc.samples": true, "ddc.attempts": true, "ddc.timeouts": true,
	"anomaly.events": true, "trace.tb_bytes": true, "trace.segments": true,
	"query.body_bytes": true, "query.epochs": true,
}

// WorkloadRun is one run of one workload: what the driver's
// --workload/--seed/--seconds/--trace invocation measures.
type WorkloadRun struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Traced   bool               `json:"traced"`
	EndToEnd map[string]float64 `json:"end_to_end"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
	User     map[string]float64 `json:"user"`   // userDefs, from the untraced pass
	Rounds   int                `json:"rounds"` // timed rounds behind round_s
	Stages   []*StageRow        `json:"stages,omitempty"`
	tally

	spans []Span
}

func (w *WorkloadRun) correct() bool { return w.Failed == 0 && len(w.Checks.Failed) == 0 }

// runner runs workloads. spawn starts one phase: a child process in the
// command, the calling process in the smoke test.
type runner struct {
	spawn   func(phaseSpec) (*phaseResult, error)
	toy     bool
	scratch string // directory for everything a run writes
}

// appendSpans appends more to spans with IDs shifted past the ones
// already there: each child process numbers its spans from 1.
func appendSpans(spans, more []Span) []Span {
	off := 0
	for _, s := range spans {
		if s.ID > off {
			off = s.ID
		}
	}
	for _, s := range more {
		s.ID += off
		if s.Parent != 0 {
			s.Parent += off
		}
		spans = append(spans, s)
	}
	return spans
}

// runPhases runs the measured phases of one workload and returns them as
// one result. Every workload is one phase except reanalyze: its archive
// is built by a process of its own (archive, reused by the traced pass),
// then the streaming and the batch engine each get half the seconds in a
// process of their own.
func (r *runner) runPhases(workload string, spec phaseSpec, archive *phaseResult) (*phaseResult, error) {
	if workload != "reanalyze" {
		spec.Phase = workload
		return r.spawn(spec)
	}
	spec.Seconds /= 2
	spec.Phase = "reanalyze.stream"
	st, err := r.spawn(spec)
	if err != nil {
		return nil, err
	}
	spec.Phase = "reanalyze.batch"
	ba, err := r.spawn(spec)
	if err != nil {
		return nil, err
	}
	res := &phaseResult{Metrics: map[string]float64{}, tally: archive.tally}
	res.add(st.tally)
	res.add(ba.tally)
	for k, v := range ba.Metrics {
		res.Metrics[k] = v + st.Metrics[k] // one round of each engine: rt.* costs, us_per_sample
	}
	m := res.Metrics
	m["setup_s"] = archive.Metrics["setup_s"] + st.Metrics["setup_s"] + ba.Metrics["setup_s"]
	m["round_s"] = st.Metrics["round_s"] + ba.Metrics["round_s"]
	m["stream_analyze_s"], m["batch_analyze_s"] = st.Metrics["round_s"], ba.Metrics["round_s"]
	m["stream_peak_rss_mb"] = st.Metrics["rt.peak_rss_mb"]
	m["rt.peak_rss_mb"] = max(st.Metrics["rt.peak_rss_mb"], ba.Metrics["rt.peak_rss_mb"])
	m["query.epochs"] = ba.Metrics["query.epochs"]
	m["trace.check_stream_s"] = archive.Metrics["trace.check_stream_s"]
	res.Rounds = append(append(res.Rounds, st.Rounds...), ba.Rounds...)
	res.Spans = appendSpans(st.Spans, ba.Spans)
	return res, nil
}

// runWorkload measures one workload once. The untraced pass yields the
// end-to-end metrics; with traced set, a second pass records spans and a
// layers phase runs the fixed-count loops, and together they yield the
// per-layer metrics and the stage table.
func (r *runner) runWorkload(workload string, seed int64, seconds float64, traced bool) (*WorkloadRun, error) {
	dir, err := os.MkdirTemp(r.scratch, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if dir, err = filepath.Abs(dir); err != nil {
		return nil, err
	}
	spec := phaseSpec{Seed: seed, Seconds: seconds, Toy: r.toy, Dir: dir}

	var archive *phaseResult
	if workload == "reanalyze" {
		spec.Phase = "reanalyze.archive"
		if archive, err = r.spawn(spec); err != nil {
			return nil, err
		}
	}
	plain, err := r.runPhases(workload, spec, archive)
	if err != nil {
		return nil, err
	}
	run := &WorkloadRun{
		Workload: workload, Seed: seed, Traced: traced,
		EndToEnd: map[string]float64{}, User: map[string]float64{}, Rounds: len(plain.Rounds),
		tally: plain.tally,
	}
	for _, d := range endToEndDefs {
		run.EndToEnd[d.Name] = plain.Metrics[d.Name]
	}
	for _, d := range userDefs {
		run.User[d.Name] = plain.Metrics[d.Name]
	}
	if !traced {
		return run, nil
	}

	spec.Trace = true
	withSpans, err := r.runPhases(workload, spec, archive)
	if err != nil {
		return nil, err
	}
	spec.Phase = "layers"
	layers, err := r.spawn(spec)
	if err != nil {
		return nil, err
	}
	run.add(withSpans.tally)
	run.add(layers.tally)
	run.spans = withSpans.Spans
	run.Stages = stageTable(run.spans)
	run.PerLayer = perLayer(plain, withSpans, layers, run)
	return run, nil
}

// perLayer assembles the declared per-layer metrics. Later sources win:
// the layer loops, the traced pass's own numbers, the untraced pass
// (runtime costs and what the workload's user sees always come from the
// untraced pass), then what the spans yield.
func perLayer(plain, withSpans, layers *phaseResult, run *WorkloadRun) map[string]float64 {
	all := map[string]float64{}
	for _, src := range []map[string]float64{layers.Metrics, withSpans.Metrics, plain.Metrics, spanMetrics(run.Stages)} {
		for k, v := range src {
			all[k] = v
		}
	}
	if all["ddc.collect_s"] > 0 && all["behavior.model_only_s"] > 0 {
		all["ddc.collect_self_s"] = all["ddc.collect_s"] - all["behavior.model_only_s"]
	}
	all["trace.tb_bytes"] = float64(run.Checks.TBBytes)
	if run.Checks.Samples > 0 {
		all["trace.tb_bytes_per_sample"] = float64(run.Checks.TBBytes) / float64(run.Checks.Samples)
	}
	if base := plain.Metrics["round_s"]; base > 0 {
		all["trace_overhead_pct"] = 100 * (withSpans.Metrics["round_s"]/base - 1)
	}
	if plain.Attempted > 0 {
		all["failed_share"] = float64(plain.Failed) / float64(plain.Attempted)
	}
	out := make(map[string]float64, len(perLayerDefs))
	for _, d := range perLayerDefs {
		out[d.Name] = all[d.Name]
	}
	return out
}

// spanMetrics derives the per-layer metrics that are stages of the
// pipeline: per-call medians of a span's wall time, and rates from the
// bytes a span moved.
func spanMetrics(rows []*StageRow) map[string]float64 {
	m := map[string]float64{}
	rounds := 1.0
	if r := findStage(rows, rootSpan); r != nil {
		rounds = float64(r.Calls)
	}
	wall := func(metric, stage string) *StageRow {
		r := findStage(rows, stage)
		if r != nil {
			m[metric] = median(r.walls)
		}
		return r
	}
	rate := func(metric string, r *StageRow) {
		if r != nil && r.WallS > 0 {
			m[metric] = float64(r.Bytes) / 1e6 / r.WallS
		}
	}
	if r := findStage(rows, "experiment.run"); r != nil {
		m["ddc.collect_s"] = median(r.selfs) // publishes run inside the span on live_publish
	}
	wall("ddc.shard_collect_s", "ddc.shard_collect")
	rate("trace.write_tb_mb_per_s", wall("trace.write_tb_s", "trace.write_tb"))
	wall("trace.read_tb_s", "trace.read")
	rate("trace.cursor_mb_per_s", findStage(rows, "trace.cursor_count"))
	if r := findStage(rows, "trace.segment_write"); r != nil {
		m["trace.segment_write_s"] = r.WallS / rounds // summed over both shard goroutines
	}
	rate("trace.merge_mb_per_s", wall("trace.merge_s", "trace.merge"))
	return m
}

// printRun prints every metric of a run by name with its unit, then the
// stage table of a traced run.
func printRun(w io.Writer, run *WorkloadRun) {
	fmt.Fprintf(w, "workload %s seed %d: %d rounds, %d operations attempted, %d failed, %d checks passed, %d failed\n",
		run.Workload, run.Seed, run.Rounds, run.Attempted, run.Failed, run.Checks.Passed, len(run.Checks.Failed))
	for _, d := range endToEndDefs {
		fmt.Fprintf(w, "  %-28s %16.6g %s\n", d.Name, run.EndToEnd[d.Name], d.Unit)
	}
	if !run.Traced {
		return
	}
	for _, d := range perLayerDefs {
		fmt.Fprintf(w, "  %-28s %16.6g %s\n", d.Name, run.PerLayer[d.Name], d.Unit)
	}
	printStageTable(w, run.Workload, run.Stages)
}
