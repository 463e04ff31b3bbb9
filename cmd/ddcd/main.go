// Command ddcd demonstrates the DDC collector over a real network: it
// boots a small simulated fleet, exposes every machine through a TCP probe
// agent on localhost, then runs the coordinator against those agents and
// prints the collected main-results table.
//
// The fleet is driven in accelerated wall time: every real second of
// collection advances the simulated fleet by -accel seconds, so a few
// seconds of wall clock cover days of simulated monitoring.
//
// The hardened-collector knobs are exposed as flags: -retries/-probe-timeout
// enable bounded retries with a per-probe deadline, -breaker-k/-breaker-every
// configure the per-machine circuit breaker, and -failp injects seeded
// transient probe failures so the retry machinery can be watched working.
//
// Observability: -metrics-addr serves live telemetry over HTTP while the
// collection runs — Prometheus text exposition on /metrics, a JSON
// snapshot on /vars, recent probe spans on /spans, recent anomaly events
// on /events, /healthz, and the net/http/pprof endpoints under
// /debug/pprof/. -trace-out streams every probe span (machine,
// iteration, attempt, latency, outcome) to a JSONL file for offline
// analysis; -events-out does the same for anomaly events. The streaming
// anomaly detectors tap the sink's commit path whenever any of
// -metrics-addr or -events-out is set.
//
// Usage:
//
//	ddcd [-machines 8] [-iters 20] [-period 100ms] [-accel 9000]
//	     [-workers 1] [-shards 1] [-retries 0] [-probe-timeout 0] [-failp 0]
//	     [-breaker-k 0] [-breaker-every 4]
//	     [-metrics-addr 127.0.0.1:9090] [-trace-out spans.jsonl]
//	     [-events-out events.jsonl]
//
// SIGINT or SIGTERM ends the collection early: every shard stops before
// its next probe, and the iterations committed so far are merged,
// summarised and served exactly as after a full run (exit status 0). A
// second signal after that point kills the process as usual.
//
// With -shards N the fleet is partitioned across N coordinators running
// concurrently, each collecting into its own sink over the shared TCP
// transport. Wall shards run on real clocks and do not share an
// iteration clock, so their traces merge with trace.Merge (iterations
// renumbered chronologically) — unlike the simulator's ShardedCollector,
// whose shards share one scheduling chain and merge sample-identically
// via MergeSharded.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"sync"
	"syscall"
	"time"

	"winlab/internal/analysis"
	"winlab/internal/anomaly"
	"winlab/internal/behavior"
	"winlab/internal/ddc"
	"winlab/internal/experiment"
	"winlab/internal/lab"
	"winlab/internal/machine"
	"winlab/internal/query"
	"winlab/internal/report"
	"winlab/internal/sim"
	"winlab/internal/telemetry"
	"winlab/internal/telemetry/httpx"
	"winlab/internal/trace"
)

// warpedFleet drives a simulated fleet forward in accelerated wall time
// and serves snapshots at the current simulated instant.
type warpedFleet struct {
	mu    sync.Mutex
	eng   *sim.Engine
	fleet *lab.Fleet
	base  time.Time // wall-clock anchor
	accel float64
	start time.Time // simulated anchor
}

// now maps wall time to simulated time.
func (wf *warpedFleet) now() time.Time {
	return wf.start.Add(time.Duration(float64(time.Since(wf.base)) * wf.accel))
}

// Snapshot implements ddc.StateSource.
func (wf *warpedFleet) Snapshot(id string, _ time.Time) (machine.Snapshot, bool) {
	wf.mu.Lock()
	defer wf.mu.Unlock()
	at := wf.now()
	wf.eng.RunUntil(at) // advance the behaviour model to "now"
	m := wf.fleet.Get(id)
	if m == nil {
		return machine.Snapshot{}, false
	}
	return m.Snapshot(at)
}

func main() {
	var (
		nMach     = flag.Int("machines", 8, "number of simulated machines (one lab)")
		iters     = flag.Int("iters", 20, "collector iterations")
		period    = flag.Duration("period", 100*time.Millisecond, "wall-clock collection period")
		accel     = flag.Float64("accel", 9000, "simulated seconds per wall second")
		seed      = flag.Int64("seed", 1, "seed")
		workers   = flag.Int("workers", 1, "concurrent probes per iteration")
		shards    = flag.Int("shards", 1, "partition the fleet across N concurrent coordinators, one sink each (merged for the report)")
		retries   = flag.Int("retries", 0, "extra probe attempts per machine per iteration")
		ptimeout  = flag.Duration("probe-timeout", 0, "per-probe deadline (0 = executor default)")
		failp     = flag.Float64("failp", 0, "injected transient probe-failure probability")
		breakerK  = flag.Int("breaker-k", 0, "consecutive failures that open the circuit breaker (0 = off)")
		breakerN  = flag.Int("breaker-every", 4, "open-breaker probe cadence in iterations")
		metrics   = flag.String("metrics-addr", "", "serve live telemetry (/metrics, /vars, /spans, /events, /healthz, /debug/pprof/) on this address")
		traceOut  = flag.String("trace-out", "", "stream probe spans to this JSONL file")
		eventsOut = flag.String("events-out", "", "stream anomaly events to this JSONL file")
		queryAddr = flag.String("query-addr", "", "serve the collected trace on the snapshot query API (/api/*) after the run")
		queryHold = flag.Duration("query-hold", 0, "keep the query server up this long after the table (0 = exit immediately)")
	)
	flag.Parse()

	// Observability: one registry feeds the collector, the TCP transport,
	// the agents and the sink; -metrics-addr exposes it live.
	var reg *telemetry.Registry
	if *metrics != "" || *traceOut != "" || *eventsOut != "" {
		reg = telemetry.NewRegistry()
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ddcd:", err)
			os.Exit(1)
		}
		bw := bufio.NewWriter(f)
		reg.Spans().SetWriter(bw)
		defer func() {
			if err := bw.Flush(); err == nil {
				err = f.Close()
				if err == nil {
					fmt.Fprintf(os.Stderr, "ddcd: %d spans written to %s\n", reg.Spans().Total(), *traceOut)
				}
			}
			if werr := reg.Spans().WriteErr(); werr != nil {
				fmt.Fprintln(os.Stderr, "ddcd: span stream error:", werr)
			}
		}()
	}
	// The anomaly detectors ride along whenever something can observe
	// them: the /events endpoint, the JSONL stream, or /metrics counters.
	var det *anomaly.Detectors
	if reg != nil {
		det = anomaly.New(anomaly.DefaultConfig(), reg)
	}
	if *eventsOut != "" {
		f, err := os.Create(*eventsOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ddcd:", err)
			os.Exit(1)
		}
		bw := bufio.NewWriter(f)
		det.Ring().SetWriter(bw)
		defer func() {
			if err := bw.Flush(); err == nil {
				err = f.Close()
				if err == nil {
					fmt.Fprintf(os.Stderr, "ddcd: %d anomaly events written to %s\n", det.Ring().Total(), *eventsOut)
				}
			}
			if werr := det.Ring().WriteErr(); werr != nil {
				fmt.Fprintln(os.Stderr, "ddcd: event stream error:", werr)
			}
		}()
	}
	if *metrics != "" {
		srv, err := httpx.ServeEvents(*metrics, reg, det.Ring())
		if err != nil {
			fmt.Fprintln(os.Stderr, "ddcd:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "ddcd: telemetry on %s/metrics (also /vars, /spans, /events, /healthz, /debug/pprof/)\n", srv.URL())
	}

	specs := []lab.Spec{{
		Name: "L01", Machines: *nMach, CPUModel: "Intel Pentium 4", CPUGHz: 2.4,
		RAMMB: 512, DiskGB: 74.5, IntIndex: 30.5, FPIndex: 33.1, BaseImgGB: 20,
	}}
	fleet := lab.Build(specs, *seed, lab.DefaultDiskLife())
	// Start mid-morning on a Monday so the accelerated demo window covers
	// live classroom hours rather than the closed night.
	start := experiment.Default(*seed).Start.Add(10 * time.Hour)
	eng := sim.New(start)
	model := behavior.NewModel(behavior.DefaultConfig(*seed), fleet)
	model.Install(eng, start, start.AddDate(0, 0, 365))

	wf := &warpedFleet{eng: eng, fleet: fleet, base: time.Now(), accel: *accel, start: start}

	// One TCP agent per machine, like one psexec endpoint per host.
	exec := ddc.NewTCPExecutor()
	exec.SetTelemetry(reg)
	var ids []string
	var infos []trace.MachineInfo
	var agents []*ddc.Agent
	for _, m := range fleet.Machines {
		agent := &ddc.Agent{Source: wf, Telemetry: reg}
		addr, err := agent.Listen("127.0.0.1:0")
		if err != nil {
			fmt.Fprintln(os.Stderr, "ddcd:", err)
			os.Exit(1)
		}
		agents = append(agents, agent)
		exec.Register(m.ID, addr)
		ids = append(ids, m.ID)
		infos = append(infos, trace.MachineInfo{
			ID: m.ID, Lab: m.Lab, RAMMB: m.HW.RAMMB, DiskGB: m.HW.DiskGB,
			IntIndex: m.HW.IntIndex, FPIndex: m.HW.FPIndex,
		})
	}
	defer func() {
		for _, a := range agents {
			_ = a.Close()
		}
	}()

	// Sample timestamps live in simulated time, so the dataset's period is
	// the wall period scaled by the acceleration factor.
	simPeriod := time.Duration(float64(*period) * *accel)
	simSpan := time.Duration(*iters) * simPeriod
	if det != nil {
		det.SetMachines(infos)
	}

	// Optional fault injection between the coordinator and the TCP path,
	// so the retry/breaker machinery can be demonstrated deterministically.
	// The fault executor is mutex-protected, so concurrent shards share
	// one injection stream (like concurrent workers already do).
	var collExec ddc.Executor = exec
	var faults *ddc.FaultExecutor
	if *failp > 0 {
		faults = &ddc.FaultExecutor{Inner: exec, TransientFailP: *failp, Seed: *seed}
		collExec = faults
	}

	// Partition the fleet across -shards concurrent coordinators, each
	// with its own sink. Unlike the simulator's ShardedCollector, wall
	// shards run on real clocks and do not share an iteration clock, so
	// their traces merge with trace.Merge (the independent-coordinators
	// merge: iterations renumbered chronologically), not MergeSharded.
	nShards := *shards
	if nShards < 1 {
		nShards = 1
	}
	parts := ddc.PartitionN(ids, nShards)
	var detMu sync.Mutex
	sinks := make([]*ddc.DatasetSink, len(parts))
	colls := make([]*ddc.WallCollector, len(parts))
	at := 0
	for s, part := range parts {
		sink := ddc.NewDatasetSink(start, start.Add(simSpan), simPeriod, infos[at:at+len(part)]).WithTelemetry(reg)
		at += len(part)
		if det != nil {
			// One detector instance observes every shard; sink taps fire on
			// the shard's goroutine, so serialise them.
			sink.Tap(func(smp *trace.Sample) {
				detMu.Lock()
				defer detMu.Unlock()
				det.Sample(smp)
			}, func(it trace.Iteration) {
				detMu.Lock()
				defer detMu.Unlock()
				det.Iteration(it)
			})
		}
		sinks[s] = sink
		colls[s] = &ddc.WallCollector{
			Cfg:          ddc.Config{Machines: part, Period: *period},
			Exec:         collExec,
			Post:         sink.Post,
			Workers:      *workers,
			ProbeTimeout: *ptimeout,
			Retry:        ddc.RetryPolicy{MaxAttempts: 1 + *retries, Jitter: 0.5, Seed: *seed},
			Breaker:      ddc.BreakerPolicy{FailThreshold: *breakerK, ProbeEvery: *breakerN},
			Telemetry:    reg,
		}
		colls[s].OnIteration = sink.OnIteration
	}

	fmt.Fprintf(os.Stderr, "ddcd: collecting %d iterations over TCP across %d shard(s) (%.0fx accelerated)...\n",
		*iters, len(parts), *accel)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	shardStats := make([]ddc.Stats, len(parts))
	shardErrs := make([]error, len(parts))
	var wg sync.WaitGroup
	for s := range colls {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			shardStats[s], shardErrs[s] = colls[s].Run(ctx, *iters)
		}(s)
	}
	wg.Wait()
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "ddcd: interrupted; reporting the iterations committed so far")
	}
	stop()
	for s, err := range shardErrs {
		if err != nil {
			fmt.Fprintf(os.Stderr, "ddcd: shard %d: %v\n", s, err)
			os.Exit(1)
		}
	}
	stats := ddc.SumShardStats(shardStats)
	shardDS := make([]*trace.Dataset, len(parts))
	for s, sink := range sinks {
		d, err := sink.Dataset()
		if err != nil {
			fmt.Fprintf(os.Stderr, "ddcd: shard %d: corrupt probe output: %v\n", s, err)
			os.Exit(1)
		}
		shardDS[s] = d
	}
	ds, err := trace.Merge(shardDS...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ddcd: merging shard traces:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "ddcd: %d attempts, %d samples, %d retries, %d breaker skips (%d opens)\n",
		stats.Attempts, stats.Samples, stats.Retries, stats.BreakerSkipped, stats.BreakerOpens)
	if faults != nil {
		fs := faults.Stats()
		fmt.Fprintf(os.Stderr, "ddcd: injected %d transient failures over %d probe attempts\n",
			fs.Transients, fs.Calls)
	}
	if down := unhealthyMachines(stats); len(down) > 0 {
		fmt.Fprintf(os.Stderr, "ddcd: machines with open breaker or consecutive failures: %v\n", down)
	}
	report.Table2(analysis.MainResults(ds, analysis.DefaultForgottenThreshold)).Render(os.Stdout)

	// Serve the merged trace on the query API: anomaly events the
	// detectors raised during the run are on /api/events, epoch-tagged.
	if *queryAddr != "" {
		st := query.NewStore(analysis.Options{})
		ev := query.NewEventLog(0, st.Epoch)
		if det != nil {
			ev.Load(det.Ring().Snapshot(), 0) // events predate the publish
		}
		st.Publish(ds)
		h := query.NewHandler(query.Config{Store: st, Events: ev, Reg: reg})
		var ring httpx.EventSource
		if det != nil {
			ring = det.Ring()
		}
		qsrv, err := query.Serve(*queryAddr, query.Root(h, reg, ring))
		if err != nil {
			fmt.Fprintln(os.Stderr, "ddcd:", err)
			os.Exit(1)
		}
		defer func() {
			if err := qsrv.Drain(); err != nil {
				fmt.Fprintln(os.Stderr, "ddcd: query server shutdown:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "ddcd: query API on %s/api/epoch (epoch %d)\n", qsrv.URL(), st.Epoch())
		if *queryHold > 0 {
			time.Sleep(*queryHold)
		}
	}
}

// unhealthyMachines lists machines the collector currently distrusts, in
// ID order.
func unhealthyMachines(st ddc.Stats) []string {
	var out []string
	for id, h := range st.Machines {
		if h.BreakerOpen || h.ConsecFails > 0 {
			out = append(out, fmt.Sprintf("%s(fails=%d open=%v)", id, h.ConsecFails, h.BreakerOpen))
		}
	}
	sort.Strings(out)
	return out
}
