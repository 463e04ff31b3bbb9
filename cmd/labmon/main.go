// Command labmon runs the full reproduction of "Resource Usage of Windows
// Computer Laboratories" (ICPP 2005): it simulates the 169-machine fleet
// for the configured duration, collects the monitoring trace with the DDC
// collector, and prints every table and figure of the paper's evaluation.
//
// With -replicate N it instead runs N independent seeds and reports the
// mean ± standard deviation of every headline metric — the statistical
// check that the reproduction's numbers are properties of the model, not
// of one lucky seed.
//
// Observability: -metrics-addr serves the collector's live telemetry over
// HTTP during the run (Prometheus /metrics, JSON /vars, /spans, /events,
// /healthz, /debug/pprof/) — the 77-day experiment compresses into ~15 s
// of wall time, so scrape fast or raise -days. -trace-out streams every
// probe span to a JSONL file; -events-out streams the online anomaly
// detectors' events the same way. The detectors tap the sink's commit
// path whenever -metrics-addr or -events-out is set.
//
// Usage:
//
//	labmon [-seed N] [-days N] [-scenario name|file.json] [-period 15m] [-shards N] [-segments dir] [-trace out.tb[.gz]] [-csvdir dir] [-quiet]
//	       [-replicate N] [-metrics-addr 127.0.0.1:9090] [-trace-out spans.jsonl] [-events-out events.jsonl]
//
// With -scenario the run plays a bundled scenario (regime shifts, fleet
// churn, per-lab calendars, server pools — see internal/scenario) or a
// scenario JSON file on top of the paper's semester; `make scenarios`
// gates each bundled scenario's claim set in CI.
//
// With -shards N the fleet is partitioned lab-aligned across N
// coordinator shards (the merged trace is identical to a one-shard run;
// see internal/ddc's sharded collector); -segments additionally writes
// each shard's trace as an independent TBv1 segment file plus a manifest,
// which traceconv -merge compacts into one canonical trace.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"winlab/internal/analysis"
	"winlab/internal/anomaly"
	"winlab/internal/core"
	"winlab/internal/experiment"
	"winlab/internal/query"
	"winlab/internal/report"
	"winlab/internal/scenario"
	"winlab/internal/stats"
	"winlab/internal/telemetry"
	"winlab/internal/telemetry/httpx"
	"winlab/internal/trace"
)

// replicate runs the n consecutive seeds starting at cfg.Seed and writes
// mean ± sd of the headline metrics to w, progress to log.
func replicate(w, log io.Writer, cfg experiment.Config, n int) error {
	metrics := map[string]*stats.Running{}
	order := []string{}
	add := func(name string, v float64) {
		r := metrics[name]
		if r == nil {
			r = &stats.Running{}
			metrics[name] = r
			order = append(order, name)
		}
		r.Add(v)
	}
	for i := 0; i < n; i++ {
		run := cfg
		run.Seed = cfg.Seed + int64(i)
		run.Behavior.Seed = run.Seed
		res, err := experiment.Run(run)
		if err != nil {
			return err
		}
		a := analysis.All(res.Dataset, analysis.Options{})
		t2, av, eq, pc := a.Table2, a.Availability, a.Equivalence, a.PowerCycles
		add("uptime both %", t2.Both.UptimePct)
		add("cpu idle both %", t2.Both.CPUIdlePct)
		add("cpu idle login %", t2.WithLogin.CPUIdlePct)
		add("ram both %", t2.Both.RAMLoadPct)
		add("disk used GB", t2.Both.DiskUsedGB)
		add("powered on avg", av.AvgPoweredOn)
		add("user-free avg", av.AvgUserFree)
		add("equivalence", eq.TotalRatio)
		add("lifetime h/cycle", pc.LifetimePerCycle.Hours())
		fmt.Fprintf(log, "labmon: replication %d/%d done (seed %d)\n", i+1, n, run.Seed)
	}
	t := &report.Table{
		Title:   fmt.Sprintf("Headline metrics over %d seeds (mean ± sd)", n),
		Headers: []string{"Metric", "Mean", "SD"},
	}
	for _, name := range order {
		r := metrics[name]
		t.AddRow(name, fmt.Sprintf("%.3f", r.Mean()), fmt.Sprintf("%.3f", r.SampleStdDev()))
	}
	t.Render(w)
	return nil
}

func main() {
	var (
		seed      = flag.Int64("seed", 1, "experiment seed (full determinism)")
		days      = flag.Int("days", 77, "experiment length in days (overrides the scenario's own)")
		scen      = flag.String("scenario", "", "apply a scenario before running: a bundled name ("+strings.Join(scenario.Names(), ", ")+") or a JSON file")
		period    = flag.Duration("period", 15*time.Minute, "sampling period")
		traceOut  = flag.String("trace", "", "write the collected trace to this TBv1 file (a trailing .gz adds gzip)")
		csvDir    = flag.String("csvdir", "", "export figure CSVs into this directory")
		quiet     = flag.Bool("quiet", false, "suppress the text report")
		reps      = flag.Int("replicate", 0, "run N independent seeds and report mean ± sd")
		shards    = flag.Int("shards", 0, "partition the fleet across N coordinator shards (lab-aligned; the merged trace is identical to an unsharded run)")
		segDir    = flag.String("segments", "", "with -shards: also write the per-shard TBv1 segment files plus manifest into this directory")
		metrics   = flag.String("metrics-addr", "", "serve live telemetry (/metrics, /vars, /spans, /events, /healthz, /debug/pprof/) on this address")
		spansOut  = flag.String("trace-out", "", "stream probe spans to this JSONL file")
		eventsOut = flag.String("events-out", "", "stream anomaly events to this JSONL file")
		queryAddr = flag.String("query-addr", "", "serve the snapshot query API (/api/*) on this address during and after the run")
		queryEvr  = flag.Int("query-every", 96, "publish a query snapshot every N collector iterations")
		queryHold = flag.Duration("query-hold", 0, "keep the query server up this long after the report (0 = exit with the report)")
	)
	flag.Parse()

	cfg := experiment.Default(*seed)
	cfg.Days = *days
	if *scen != "" {
		sc, err := scenario.Resolve(*scen)
		if err != nil {
			fmt.Fprintln(os.Stderr, "labmon:", err)
			os.Exit(1)
		}
		if err := sc.Apply(&cfg); err != nil {
			fmt.Fprintln(os.Stderr, "labmon:", err)
			os.Exit(1)
		}
		// An explicit -days beats the scenario's own length.
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "days" {
				cfg.Days = *days
			}
		})
		fmt.Fprintf(os.Stderr, "labmon: scenario %s: %s\n", sc.Name, sc.Description)
	}
	cfg.Period = *period
	cfg.Shards = *shards
	if *segDir != "" && *shards <= 1 {
		fmt.Fprintln(os.Stderr, "labmon: -segments needs -shards > 1 (segments are the per-shard outputs)")
		os.Exit(1)
	}

	if *metrics != "" || *spansOut != "" || *eventsOut != "" {
		cfg.Telemetry = telemetry.NewRegistry()
		cfg.Detect = anomaly.New(anomaly.DefaultConfig(), cfg.Telemetry)
	}
	if *spansOut != "" {
		f, err := os.Create(*spansOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "labmon:", err)
			os.Exit(1)
		}
		bw := bufio.NewWriter(f)
		cfg.Telemetry.Spans().SetWriter(bw)
		defer func() {
			if err := bw.Flush(); err == nil && f.Close() == nil {
				fmt.Fprintf(os.Stderr, "labmon: %d spans written to %s\n", cfg.Telemetry.Spans().Total(), *spansOut)
			}
			if werr := cfg.Telemetry.Spans().WriteErr(); werr != nil {
				fmt.Fprintln(os.Stderr, "labmon: span stream error:", werr)
			}
		}()
	}
	if *eventsOut != "" {
		f, err := os.Create(*eventsOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "labmon:", err)
			os.Exit(1)
		}
		bw := bufio.NewWriter(f)
		cfg.Detect.Ring().SetWriter(bw)
		defer func() {
			if err := bw.Flush(); err == nil && f.Close() == nil {
				fmt.Fprintf(os.Stderr, "labmon: %d anomaly events written to %s\n", cfg.Detect.Ring().Total(), *eventsOut)
			}
			if werr := cfg.Detect.Ring().WriteErr(); werr != nil {
				fmt.Fprintln(os.Stderr, "labmon: event stream error:", werr)
			}
		}()
	}
	if *metrics != "" {
		srv, err := httpx.ServeEvents(*metrics, cfg.Telemetry, cfg.Detect.Ring())
		if err != nil {
			fmt.Fprintln(os.Stderr, "labmon:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "labmon: telemetry on %s/metrics (also /vars, /spans, /events, /healthz, /debug/pprof/)\n", srv.URL())
	}

	// The query service rides on the run: snapshots of the accumulating
	// trace publish into its store every -query-every iterations, so
	// /api/* answers — with snapshot isolation — while the collector is
	// still committing. Anomaly events land on /api/events epoch-tagged.
	var qstore *query.Store
	if *queryAddr != "" {
		qstore = query.NewStore(analysis.Options{})
		qevents := query.NewEventLog(0, qstore.Epoch)
		if cfg.Detect != nil {
			qevents.Attach(cfg.Detect.Ring())
		}
		if *shards <= 1 { // sharded runs have no single-sink prefix; only the final merge publishes
			cfg.SnapshotEvery = *queryEvr
			cfg.OnSnapshot = func(ds *trace.Dataset) { qstore.Publish(ds) }
		}
		qh := query.NewHandler(query.Config{Store: qstore, Events: qevents, Reg: cfg.Telemetry})
		var ring httpx.EventSource
		if cfg.Detect != nil {
			ring = cfg.Detect.Ring()
		}
		qsrv, err := query.Serve(*queryAddr, query.Root(qh, cfg.Telemetry, ring))
		if err != nil {
			fmt.Fprintln(os.Stderr, "labmon:", err)
			os.Exit(1)
		}
		defer func() {
			if err := qsrv.Drain(); err != nil {
				fmt.Fprintln(os.Stderr, "labmon: query server shutdown:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "labmon: query API on %s/api/epoch\n", qsrv.URL())
	}

	if *reps > 0 {
		if err := replicate(os.Stdout, os.Stderr, cfg, *reps); err != nil {
			fmt.Fprintln(os.Stderr, "labmon:", err)
			os.Exit(1)
		}
		return
	}

	fmt.Fprintf(os.Stderr, "labmon: simulating %d machines for %d days (seed %d)...\n",
		func() int {
			n := len(cfg.ExtraMachines)
			for _, s := range cfg.Labs {
				n += s.Machines
			}
			return n
		}(), cfg.Days, *seed)
	start := time.Now()
	res, err := experiment.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "labmon:", err)
		os.Exit(1)
	}
	c := res.Collector
	fmt.Fprintf(os.Stderr, "labmon: %d iterations (%d lost to outages), %d probe attempts, %d samples collected in %s\n",
		c.Iterations, c.Skipped, c.Attempts, c.Samples, time.Since(start).Round(time.Millisecond))
	if c.Retries > 0 || c.BreakerSkipped > 0 {
		fmt.Fprintf(os.Stderr, "labmon: collector health: %d retries, %d breaker skips (%d opens)\n",
			c.Retries, c.BreakerSkipped, c.BreakerOpens)
	}

	if *segDir != "" {
		if err := os.MkdirAll(*segDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "labmon:", err)
			os.Exit(1)
		}
		mpath, err := trace.WriteSegments(*segDir, "labmon", res.ShardDatasets)
		if err != nil {
			fmt.Fprintln(os.Stderr, "labmon: writing segments:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "labmon: %d segment files + manifest written to %s (compact with traceconv -merge)\n",
			len(res.ShardDatasets), mpath)
	}

	if *traceOut != "" {
		if err := trace.WriteFile(*traceOut, res.Dataset); err != nil {
			fmt.Fprintln(os.Stderr, "labmon: writing trace:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "labmon: trace written to %s\n", *traceOut)
	}

	rep := core.AnalyzeResult(res)
	if !*quiet {
		rep.Render(os.Stdout)
		fmt.Println()
		rep.ComparePaper(os.Stdout)
	}
	if *csvDir != "" {
		if err := rep.WriteCSVs(*csvDir); err != nil {
			fmt.Fprintln(os.Stderr, "labmon: writing CSVs:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "labmon: figure CSVs written to %s\n", *csvDir)
	}
	if qstore != nil {
		qstore.Publish(res.Dataset)
		fmt.Fprintf(os.Stderr, "labmon: final trace published to query API (epoch %d)\n", qstore.Epoch())
		if *queryHold > 0 {
			time.Sleep(*queryHold)
		}
	}
}
