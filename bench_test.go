// Package bench is the reproduction's benchmark harness: the paper's
// tables and figures, plus the ablations called out in DESIGN.md §5. The
// analysis benchmarks regenerate their artefacts from a shared 14-day
// trace (the full 77-day run is cmd/labmon's job; the statistics are
// scale-free) and attach the headline values as custom benchmark
// metrics, so `go test -bench .` both times the analysis pipeline and
// prints the reproduced numbers next to the paper's.
//
//	BenchmarkTable1        — hardware catalogue + fleet aggregates
//	BenchmarkPaperArtefacts — Table 2, Figures 2–6, §5.2 sessions and SMART
//	                         cycles, per-lab usage, §6 capacity: one pass
//	BenchmarkHarvest       — desktop-grid yield (extension)
//	BenchmarkAblation*     — design-choice ablations
//	BenchmarkSimulation    — fleet-simulation throughput (one day)
//	BenchmarkSimulationPaperScale — the 77-day run, per sample (-benchtime 1x)
//	BenchmarkCollection    — probe render+parse+post-collect path
//	BenchmarkGrid*         — grid_shards' trace stages: segment write, merge, cursor
package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"winlab/internal/analysis"
	"winlab/internal/ddc"
	"winlab/internal/experiment"
	"winlab/internal/gridfleet"
	"winlab/internal/harvest"
	"winlab/internal/lab"
	"winlab/internal/predictor"
	"winlab/internal/probe"
	"winlab/internal/trace"
	"winlab/internal/trace/stream"
)

var (
	once   sync.Once
	shared *experiment.Result
)

// dataset lazily runs one 14-day experiment shared by all benchmarks.
func dataset(b *testing.B) *experiment.Result {
	b.Helper()
	once.Do(func() {
		cfg := experiment.Default(1)
		cfg.Days = 14
		res, err := experiment.Run(cfg)
		if err != nil {
			panic(err)
		}
		shared = res
	})
	return shared
}

func BenchmarkTable1(b *testing.B) {
	var agg lab.Aggregates
	for i := 0; i < b.N; i++ {
		agg = lab.Aggregate(lab.PaperCatalog())
	}
	b.ReportMetric(agg.AvgRAMMB, "ram_MB/machine")
	b.ReportMetric(agg.AvgDiskGB, "disk_GB/machine")
	b.ReportMetric(agg.TotalGFlops, "fleet_GFlops")
}

// BenchmarkPaperArtefacts times the analysis engine's one pass over the
// shared trace and reports every artefact's headline values.
func BenchmarkPaperArtefacts(b *testing.B) {
	res := dataset(b)
	b.ResetTimer()
	var r *analysis.Results
	for i := 0; i < b.N; i++ {
		r = analysis.All(res.Dataset, analysis.Options{})
	}
	b.StopTimer()
	if len(r.Labs) != 11 {
		b.Fatalf("labs = %d", len(r.Labs))
	}
	t2 := r.Table2
	b.ReportMetric(t2.Both.UptimePct, "uptime_%")
	b.ReportMetric(t2.Both.CPUIdlePct, "cpu_idle_%")
	b.ReportMetric(t2.NoLogin.CPUIdlePct, "cpu_idle_nologin_%")
	b.ReportMetric(t2.WithLogin.CPUIdlePct, "cpu_idle_login_%")
	b.ReportMetric(t2.Both.RAMLoadPct, "ram_%")
	b.ReportMetric(t2.Both.DiskUsedGB, "disk_GB")
	b.ReportMetric(float64(r.SessionAge.FirstBucketAtOrAbove(99)), "forgotten_threshold_h")
	b.ReportMetric(r.Availability.AvgPoweredOn, "powered_on")
	b.ReportMetric(r.Availability.AvgUserFree, "user_free")
	b.ReportMetric(float64(analysis.CountAbove(r.Uptimes, 0.5)), "machines_above_0.5")
	b.ReportMetric(float64(analysis.CountAbove(r.Uptimes, 0.8)), "machines_above_0.8")
	b.ReportMetric(float64(r.Sessions.Count), "sessions")
	b.ReportMetric(r.Sessions.Mean.Hours(), "mean_h")
	b.ReportMetric(100*r.Sessions.ShortFraction, "under_96h_%")
	b.ReportMetric(r.PowerCycles.CyclesPerDay, "cycles/machine-day")
	b.ReportMetric(100*r.PowerCycles.UndetectedRatio, "undetected_%")
	b.ReportMetric(r.PowerCycles.LifetimePerCycle.Hours(), "lifetime_h/cycle")
	_, idle := r.Weekly.MinCPUIdleSlot()
	b.ReportMetric(idle, "min_weekly_idle_%")
	b.ReportMetric(r.Equivalence.TotalRatio, "equivalence")
	b.ReportMetric(r.Equivalence.OccupiedRatio, "occupied")
	b.ReportMetric(r.Equivalence.FreeRatio, "free")
	b.ReportMetric(r.Capacity.FleetFreeRAMGB, "fleet_free_RAM_GB")
	b.ReportMetric(r.Capacity.FleetFreeDiskTB, "fleet_free_disk_TB")
}

func BenchmarkHarvest(b *testing.B) {
	res := dataset(b)
	b.ResetTimer()
	var r harvest.Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = harvest.Run(res.Dataset, harvest.Config{
			TaskWork: 25, Checkpoint: 15 * time.Minute, Policy: harvest.FreeOnly,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Equivalence, "harvested_equivalence")
	b.ReportMetric(float64(r.CompletedTasks), "tasks")
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §5).

// BenchmarkAblationThreshold sweeps the forgotten-session threshold and
// reports the with-login share at 6 h vs the paper's 10 h choice.
func BenchmarkAblationThreshold(b *testing.B) {
	res := dataset(b)
	b.ResetTimer()
	var at6, at10, raw float64
	for i := 0; i < b.N; i++ {
		t6 := analysis.MainResults(res.Dataset, 6*time.Hour)
		t10 := analysis.MainResults(res.Dataset, 10*time.Hour)
		t0 := analysis.MainResults(res.Dataset, 0)
		at6 = t6.WithLogin.UptimePct
		at10 = t10.WithLogin.UptimePct
		raw = t0.WithLogin.UptimePct
	}
	b.ReportMetric(at6, "login_%_thresh6h")
	b.ReportMetric(at10, "login_%_thresh10h")
	b.ReportMetric(raw, "login_%_raw")
}

// BenchmarkAblationEquivalenceWeighting quantifies how much NBench-index
// normalisation changes the equivalence ratio.
func BenchmarkAblationEquivalenceWeighting(b *testing.B) {
	res := dataset(b)
	b.ResetTimer()
	var weighted, unweighted float64
	for i := 0; i < b.N; i++ {
		weighted = analysis.All(res.Dataset, analysis.Options{}).Equivalence.TotalRatio
		unweighted = analysis.All(res.Dataset, analysis.Options{UnweightedEquivalence: true}).Equivalence.TotalRatio
	}
	b.ReportMetric(weighted, "weighted")
	b.ReportMetric(unweighted, "unweighted")
}

// BenchmarkAblationSamplingPeriod reruns the collector at a 30-minute
// period over the same fleet evolution and reports how many sessions each
// period detects relative to ground truth.
func BenchmarkAblationSamplingPeriod(b *testing.B) {
	res15 := dataset(b)
	gt := experiment.Truth(res15)
	var n30 int
	for i := 0; i < b.N; i++ {
		cfg := experiment.Default(1)
		cfg.Days = 14
		cfg.Period = 30 * time.Minute
		res30, err := experiment.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		n30 = analysis.All(res30.Dataset, analysis.Options{}).Sessions.Count
	}
	n15 := analysis.All(res15.Dataset, analysis.Options{}).Sessions.Count
	b.ReportMetric(float64(gt.PowerSessions), "true_sessions")
	b.ReportMetric(float64(n15), "detected_15m")
	b.ReportMetric(float64(n30), "detected_30m")
}

// BenchmarkAblationHarvestCheckpoint sweeps checkpoint intervals.
func BenchmarkAblationHarvestCheckpoint(b *testing.B) {
	res := dataset(b)
	b.ResetTimer()
	var none, ck15 float64
	for i := 0; i < b.N; i++ {
		rs, err := harvest.SweepCheckpoint(res.Dataset, 25, harvest.FreeOnly,
			[]time.Duration{0, 15 * time.Minute})
		if err != nil {
			b.Fatal(err)
		}
		none, ck15 = rs[0].Equivalence, rs[1].Equivalence
	}
	b.ReportMetric(none, "no_checkpoint")
	b.ReportMetric(ck15, "checkpoint_15m")
}

// ---------------------------------------------------------------------------
// Infrastructure benchmarks.

// BenchmarkSimulation measures fleet-simulation throughput: one simulated
// day of the full 169-machine institution per iteration.
func BenchmarkSimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiment.Default(int64(i + 1))
		cfg.Days = 1
		if _, err := experiment.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulationPaperScale is the paper's run — 169 machines × 77
// days, seed 1 — through experiment.Run, reported per collected sample.
// One day (BenchmarkSimulation) hides every cost that grows with the
// trace: the machine-major ordering pass and the sink's slice growth only
// show at this length. One iteration takes seconds; run it with
// -benchtime 1x (`make profile` does, under -cpuprofile).
func BenchmarkSimulationPaperScale(b *testing.B) {
	samples := 0
	for i := 0; i < b.N; i++ {
		res, err := experiment.Run(experiment.Default(1))
		if err != nil {
			b.Fatal(err)
		}
		samples += len(res.Dataset.Samples)
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(samples), "us/sample")
}

// BenchmarkProbeRender measures the probe's report generation on the
// collection hot path: probe.AppendRender into a reused buffer, exactly
// how the pooled collectors render (0 allocs/op).
func BenchmarkProbeRender(b *testing.B) {
	fleet := lab.BuildPaperFleet(1)
	m := fleet.Machines[0]
	at := time.Date(2003, 10, 6, 8, 0, 0, 0, time.UTC)
	m.PowerOn(at)
	sn, _ := m.Snapshot(at.Add(time.Hour))
	buf := probe.AppendRender(nil, sn)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = probe.AppendRender(buf[:0], sn)
		if len(buf) == 0 {
			b.Fatal("empty report")
		}
	}
}

// BenchmarkProbeRenderAlloc renders into a fresh buffer per call — the
// pre-pooling behaviour, kept for comparison against BenchmarkProbeRender.
func BenchmarkProbeRenderAlloc(b *testing.B) {
	fleet := lab.BuildPaperFleet(1)
	m := fleet.Machines[0]
	at := time.Date(2003, 10, 6, 8, 0, 0, 0, time.UTC)
	m.PowerOn(at)
	sn, _ := m.Snapshot(at.Add(time.Hour))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := probe.AppendRender(nil, sn); len(out) == 0 {
			b.Fatal("empty report")
		}
	}
}

// BenchmarkProbeParse measures the coordinator-side parse path with a
// reused Parser — the in-place byte codec with string interning (0
// allocs/op in steady state) — without a target, and with one, as the
// sink parses: the machine ID taken from the collector and the static
// block replayed from the memo.
func BenchmarkProbeParse(b *testing.B) {
	fleet := lab.BuildPaperFleet(1)
	m := fleet.Machines[0]
	at := time.Date(2003, 10, 6, 8, 0, 0, 0, time.UTC)
	m.PowerOn(at)
	sn, _ := m.Snapshot(at.Add(time.Hour))
	out := probe.AppendRender(nil, sn)
	for _, target := range []string{"", sn.ID} {
		name := "target"
		if target == "" {
			name = "no-target"
		}
		b.Run(name, func(b *testing.B) {
			p := probe.NewParser()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.ParseTarget(target, out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCollection measures the full render→post-collect→dataset path.
func BenchmarkCollection(b *testing.B) {
	fleet := lab.BuildPaperFleet(1)
	at := time.Date(2003, 10, 6, 8, 0, 0, 0, time.UTC)
	for _, m := range fleet.Machines {
		m.PowerOn(at)
	}
	now := at.Add(time.Hour)
	exec := &ddc.Direct{
		Source: lab.Source{Fleet: fleet},
		Now:    func() time.Time { return now },
	}
	buf := make([]byte, 0, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink := ddc.NewDatasetSink(at, at.AddDate(0, 0, 1), 15*time.Minute, nil)
		for _, m := range fleet.Machines {
			out, err := exec.ExecAppend(buf[:0], m.ID)
			sink.Post(0, m.ID, out, err)
			if out != nil {
				buf = out[:0]
			}
		}
		ds, err := sink.Dataset()
		if err != nil {
			b.Fatal(err)
		}
		if len(ds.Samples) != fleet.Size() {
			b.Fatalf("samples = %d", len(ds.Samples))
		}
	}
}

// BenchmarkTraceWriteTB measures TBv1 binary serialisation throughput.
func BenchmarkTraceWriteTB(b *testing.B) {
	res := dataset(b)
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := trace.WriteFile(dir+"/t.tb", res.Dataset); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceReadTB measures TBv1 binary parsing throughput (via the
// sniffing ReadFile, as consumers load it).
func BenchmarkTraceReadTB(b *testing.B) {
	res := dataset(b)
	dir := b.TempDir()
	if err := trace.WriteFile(dir+"/t.tb", res.Dataset); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.ReadFile(dir + "/t.tb"); err != nil {
			b.Fatal(err)
		}
	}
}

var (
	tbOnce  sync.Once
	tbBytes []byte
)

// streamTB lazily encodes the shared dataset to canonical TBv1 bytes
// (frozen first, so the encoding is machine-contiguous) for the
// out-of-core benchmarks.
func streamTB(b *testing.B) []byte {
	res := dataset(b)
	tbOnce.Do(func() {
		res.Dataset.Freeze()
		var buf bytes.Buffer
		if err := trace.WriteBinary(&buf, res.Dataset); err != nil {
			panic(err)
		}
		tbBytes = buf.Bytes()
	})
	return tbBytes
}

// BenchmarkTraceStreamCursor measures the chunked TBv1 cursor: full
// decode into reused run buffers, no Dataset materialisation. Compare
// with BenchmarkTraceReadTB (the batch decode) — same bytes, constant
// memory.
func BenchmarkTraceStreamCursor(b *testing.B) {
	tb := streamTB(b)
	b.SetBytes(int64(len(tb)))
	b.ReportAllocs()
	b.ResetTimer()
	var run stream.Run
	for i := 0; i < b.N; i++ {
		c, err := stream.New(bytes.NewReader(tb))
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			ok, err := c.NextRun(&run)
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
			n += len(run.Samples)
		}
		if uint64(n) != c.DeclaredSamples() {
			b.Fatalf("decoded %d of %d samples", n, c.DeclaredSamples())
		}
	}
}

// gridSegments collects pipebench's grid_shards layout — two shards,
// four-iteration chunks, twelve iterations, so six segments — into a
// fresh directory and returns its manifest. GRIDSCALE_MACHINES sizes the
// fleet (20k by default; `make profile-grid` raises it to the
// benchmark's 100k).
func gridSegments(b *testing.B) (string, *trace.Manifest) {
	b.Helper()
	dir := b.TempDir()
	mpath, _, err := gridfleet.Collect(dir, 1, gridEnvInt("GRIDSCALE_MACHINES", 20000), 2, 12, 4)
	if err != nil {
		b.Fatal(err)
	}
	m, err := trace.ReadManifest(mpath)
	if err != nil {
		b.Fatal(err)
	}
	return dir, m
}

// gridMerge compacts the manifest's segments into dir/grid-merged.tb and
// returns the path and size of the merged trace.
func gridMerge(b *testing.B, dir string, m *trace.Manifest) (string, int64) {
	b.Helper()
	path := filepath.Join(dir, "grid-merged.tb")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := trace.MergeSegments(f, m, dir); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	return path, info.Size()
}

// BenchmarkGridSegmentWrite measures writing one frozen chunk (half the
// fleet × four iterations) as a TBv1 segment file — what each shard
// does three times per grid_shards round (trace.segment_write).
func BenchmarkGridSegmentWrite(b *testing.B) {
	dir, m := gridSegments(b)
	seg := filepath.Join(dir, m.Segments[0].Path)
	ds, err := trace.ReadFile(seg)
	if err != nil {
		b.Fatal(err)
	}
	info, err := os.Stat(seg)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(info.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := trace.WriteFileFormat(filepath.Join(dir, "rewrite.tb"), ds, trace.FormatTB); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGridMerge measures the streaming compaction of the six
// segments into one canonical trace, file to file (trace.merge);
// throughput is in merged bytes.
func BenchmarkGridMerge(b *testing.B) {
	dir, m := gridSegments(b)
	_, size := gridMerge(b, dir, m)
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gridMerge(b, dir, m)
	}
}

// BenchmarkGridCursor measures a run-at-a-time drain of the merged
// trace from disk (trace.cursor_count) — the rate the merge is judged
// against.
func BenchmarkGridCursor(b *testing.B) {
	dir, m := gridSegments(b)
	path, size := gridMerge(b, dir, m)
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	var run stream.Run
	for i := 0; i < b.N; i++ {
		c, err := stream.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		n := uint64(0)
		for {
			ok, err := c.NextRun(&run)
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
			n += uint64(len(run.Samples))
		}
		if n != c.DeclaredSamples() {
			b.Fatalf("decoded %d of %d samples", n, c.DeclaredSamples())
		}
		c.Close()
	}
}

// BenchmarkAnalyzeAll measures the in-memory engine pass over the frozen
// 14-day dataset; All folds its machine spans on GOMAXPROCS goroutines,
// so -cpu 1,2 compares one goroutine with two.
func BenchmarkAnalyzeAll(b *testing.B) {
	ds := dataset(b).Dataset
	ds.Freeze()
	b.ResetTimer()
	var r *analysis.Results
	for i := 0; i < b.N; i++ {
		r = analysis.All(ds, analysis.Options{})
	}
	b.ReportMetric(r.Table2.Both.UptimePct, "uptime_%")
	b.ReportMetric(r.Equivalence.TotalRatio, "equivalence")
}

// BenchmarkAnalyzeAllStream measures the sequential out-of-core
// analysis: every table and figure in one pass over the TBv1 bytes,
// bit-identical to BenchmarkPaperArtefacts' in-memory pass.
func BenchmarkAnalyzeAllStream(b *testing.B) {
	tb := streamTB(b)
	b.SetBytes(int64(len(tb)))
	b.ResetTimer()
	var r *analysis.Results
	for i := 0; i < b.N; i++ {
		c, err := stream.New(bytes.NewReader(tb))
		if err != nil {
			b.Fatal(err)
		}
		r, err = analysis.AllStream(c, analysis.Options{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Table2.Both.UptimePct, "uptime_%")
	b.ReportMetric(r.Equivalence.TotalRatio, "equivalence")
}

// BenchmarkAnalyzeAllStreamParallel is AllStream with machine-sharded
// accumulators across 4 workers (the same Results bit for bit; see
// validate's stream/allstream-parallel arm).
func BenchmarkAnalyzeAllStreamParallel(b *testing.B) {
	tb := streamTB(b)
	b.SetBytes(int64(len(tb)))
	b.ResetTimer()
	var r *analysis.Results
	for i := 0; i < b.N; i++ {
		c, err := stream.New(bytes.NewReader(tb))
		if err != nil {
			b.Fatal(err)
		}
		r, err = analysis.AllStream(c, analysis.Options{Workers: 4})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Table2.Both.UptimePct, "uptime_%")
	b.ReportMetric(r.Equivalence.TotalRatio, "equivalence")
}

// BenchmarkAblationReplication runs the bag-of-tasks master at replication
// factors 1 and 2: makespan insurance vs wasted duplicate work.
func BenchmarkAblationReplication(b *testing.B) {
	res := dataset(b)
	b.ResetTimer()
	var rs []harvest.QueueResult
	for i := 0; i < b.N; i++ {
		var err error
		rs, err = harvest.CompareReplication(res.Dataset,
			harvest.QueueConfig{Tasks: 2000, TaskWork: 25, Checkpoint: 15 * time.Minute, Policy: harvest.FreeOnly},
			[]int{1, 2})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rs[0].Makespan.Hours(), "makespan_h_r1")
	b.ReportMetric(rs[1].Makespan.Hours(), "makespan_h_r2")
	b.ReportMetric(rs[1].WastedWork, "wasted_idxh_r2")
}

// BenchmarkAblationPlacement quantifies predictor-guided placement: harvest
// only the most stable half of the fleet (by historical 1-hour survival)
// versus harvesting everything, and compare eviction counts and per-machine
// efficiency.
func BenchmarkAblationPlacement(b *testing.B) {
	res := dataset(b)
	model := predictor.Fit(res.Dataset, time.Hour)
	stable := model.StableSet(0.5, 20)
	b.ResetTimer()
	var all, top harvest.QueueResult
	for i := 0; i < b.N; i++ {
		var err error
		all, err = harvest.RunQueue(res.Dataset, harvest.QueueConfig{
			Tasks: 100000, TaskWork: 25, Checkpoint: 15 * time.Minute, Policy: harvest.FreeOnly,
		})
		if err != nil {
			b.Fatal(err)
		}
		top, err = harvest.RunQueue(res.Dataset, harvest.QueueConfig{
			Tasks: 100000, TaskWork: 25, Checkpoint: 15 * time.Minute, Policy: harvest.FreeOnly,
			MachineFilter: func(id string) bool { return stable[id] },
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(all.Evictions), "evictions_all")
	b.ReportMetric(float64(top.Evictions), "evictions_stable_half")
	b.ReportMetric(float64(all.CompletedTasks), "tasks_all")
	b.ReportMetric(float64(top.CompletedTasks), "tasks_stable_half")
}

// BenchmarkPredictor measures fitting and scoring the survival predictor.
func BenchmarkPredictor(b *testing.B) {
	res := dataset(b)
	b.ResetTimer()
	var ev predictor.Evaluation
	for i := 0; i < b.N; i++ {
		m := predictor.Fit(res.Dataset, time.Hour)
		ev = m.Evaluate(res.Dataset)
	}
	b.ReportMetric(100*ev.Skill(), "brier_skill_%")
	b.ReportMetric(ev.BaseRate, "survival_base_rate")
}
