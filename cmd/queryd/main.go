// Command queryd serves the high-throughput query API over a monitoring
// trace: per-lab and per-machine availability, weekly profiles,
// equivalence ratios, uptime histograms, machine heatmaps, and anomaly
// event history, every response materialized once per snapshot epoch and
// served from an immutable cache with strong ETags.
//
// Data sources (exactly one):
//
//	-trace FILE    load a collected TBv1 trace (plain or gzipped) or a
//	               segment manifest
//	-stream FILE   stream a TBv1 trace or segment manifest out-of-core
//	               (bounded memory)
//	-sim-days N    simulate the paper's fleet for N days in-process,
//	               publishing a snapshot every -publish-every iterations
//	               while the collection runs, then the final trace
//
// -events FILE replays a recorded anomaly event stream (the JSONL
// written by labmon/ddcd -events-out) into /api/events.
//
// Admission control: -max-inflight bounds concurrent requests,
// -max-queue the waiting line, -queue-timeout the longest wait; beyond
// that requests are shed with 503 + Retry-After so the served tail
// latency stays flat under overload.
//
// The telemetry surface (/metrics, /vars, /healthz, /debug/pprof/) is
// mounted next to /api/*. -hold exits after the given duration (smoke
// tests); the default serves until SIGINT or SIGTERM. Either way the
// server then stops accepting connections and lets requests already in
// flight finish, for up to query.DrainTimeout.
//
// Usage:
//
//	queryd [-addr 127.0.0.1:8080] (-trace f | -stream f | -sim-days N)
//	       [-seed 1] [-period 15m] [-events f.jsonl] [-publish-every 96]
//	       [-max-inflight 0] [-max-queue 256] [-queue-timeout 50ms]
//	       [-workers 0] [-hold 0]
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"winlab/internal/analysis"
	"winlab/internal/anomaly"
	"winlab/internal/core"
	"winlab/internal/experiment"
	"winlab/internal/query"
	"winlab/internal/telemetry"
	"winlab/internal/trace"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8080", "serve the query API on this address (use :0 for an ephemeral port)")
		traceIn   = flag.String("trace", "", "serve this collected TBv1 trace (plain or gzipped) or segment manifest")
		streamIn  = flag.String("stream", "", "stream this TBv1 trace or segment manifest out-of-core (bounded memory)")
		simDays   = flag.Int("sim-days", 0, "simulate the paper's fleet for N days and serve the trace")
		seed      = flag.Int64("seed", 1, "simulation seed (with -sim-days)")
		period    = flag.Duration("period", 15*time.Minute, "sampling period (with -sim-days)")
		pubEvery  = flag.Int("publish-every", 96, "with -sim-days: publish a snapshot every N collector iterations (0 = only the final trace)")
		eventsIn  = flag.String("events", "", "replay this anomaly event JSONL file into /api/events")
		workers   = flag.Int("workers", 0, "with -stream: analysis workers sharding a TBv1 trace by machine (0 or 1 = one worker; every count gives the same results; ignored for manifests)")
		inflight  = flag.Int("max-inflight", 0, "admission gate: max concurrent requests (0 = unlimited)")
		queueLen  = flag.Int("max-queue", 256, "admission gate: max queued requests")
		queueWait = flag.Duration("queue-timeout", 50*time.Millisecond, "admission gate: max queue wait before shedding")
		hold      = flag.Duration("hold", 0, "exit after this long (0 = serve until interrupted)")
	)
	flag.Parse()

	sources := 0
	for _, set := range []bool{*traceIn != "", *streamIn != "", *simDays > 0} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		fmt.Fprintln(os.Stderr, "queryd: exactly one of -trace, -stream, -sim-days is required")
		os.Exit(1)
	}

	reg := telemetry.NewRegistry()
	st := query.NewStore(analysis.Options{Workers: *workers})
	events := query.NewEventLog(0, st.Epoch)
	h := query.NewHandler(query.Config{
		Store:  st,
		Gate:   query.NewGate(*inflight, *queueLen, *queueWait),
		Events: events,
		Reg:    reg,
	})
	srv, err := query.Serve(*addr, query.Root(h, reg, nil))
	if err != nil {
		fmt.Fprintln(os.Stderr, "queryd:", err)
		os.Exit(1)
	}
	defer func() {
		if err := srv.Drain(); err != nil {
			fmt.Fprintln(os.Stderr, "queryd: shutdown:", err)
		}
	}()
	fmt.Fprintf(os.Stderr, "queryd: query API on %s/api/epoch (telemetry on /metrics)\n", srv.URL())

	switch {
	case *traceIn != "":
		ds, err := trace.ReadFile(*traceIn)
		if err != nil {
			fmt.Fprintf(os.Stderr, "queryd: reading %s: %v\n", *traceIn, err)
			os.Exit(1)
		}
		st.Publish(ds)
		fmt.Fprintf(os.Stderr, "queryd: serving %d samples / %d iterations / %d machines from %s (epoch %d)\n",
			len(ds.Samples), len(ds.Iterations), len(ds.Machines), *traceIn, st.Epoch())

	case *streamIn != "":
		res, err := core.StreamResults(*streamIn, *workers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "queryd: streaming %s: %v\n", *streamIn, err)
			os.Exit(1)
		}
		pts := res.Availability.Points
		info := query.Info{Iterations: len(pts)}
		if n := len(pts); n > 0 {
			info.Start = pts[0].Time
			if n > 1 {
				info.Period = pts[1].Time.Sub(pts[0].Time)
			}
			info.End = pts[n-1].Time.Add(info.Period)
		}
		st.PublishResults(res, info)
		fmt.Fprintf(os.Stderr, "queryd: serving streamed analysis of %s (epoch %d)\n",
			*streamIn, st.Epoch())

	case *simDays > 0:
		cfg := experiment.Default(*seed)
		cfg.Days = *simDays
		cfg.Period = *period
		if *pubEvery > 0 {
			cfg.SnapshotEvery = *pubEvery
			cfg.OnSnapshot = func(ds *trace.Dataset) { st.Publish(ds) }
		}
		fmt.Fprintf(os.Stderr, "queryd: simulating %d days (seed %d)...\n", *simDays, *seed)
		res, err := experiment.Run(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "queryd:", err)
			os.Exit(1)
		}
		st.Publish(res.Dataset)
		fmt.Fprintf(os.Stderr, "queryd: serving %d samples / %d iterations (final epoch %d)\n",
			len(res.Dataset.Samples), len(res.Dataset.Iterations), st.Epoch())
	}

	if *eventsIn != "" {
		f, err := os.Open(*eventsIn)
		if err != nil {
			fmt.Fprintln(os.Stderr, "queryd:", err)
			os.Exit(1)
		}
		es, err := anomaly.ReadEventsJSONL(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "queryd: reading %s: %v\n", *eventsIn, err)
			os.Exit(1)
		}
		events.Load(es, st.Epoch())
		fmt.Fprintf(os.Stderr, "queryd: replayed %d anomaly events from %s\n", len(es), *eventsIn)
	}

	if *hold > 0 {
		time.Sleep(*hold)
		return
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "queryd: shutting down")
}
