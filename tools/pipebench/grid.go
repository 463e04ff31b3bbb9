package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"time"

	"winlab/internal/ddc"
	"winlab/internal/machine"
	"winlab/internal/sim"
	"winlab/internal/trace"
	"winlab/internal/trace/check"
	"winlab/internal/trace/stream"
)

// The grid load generator is pipebench's own seeded copy of the
// arithmetic fleet and segment chunker of the root gridscale_test.go
// (a test package, which nothing can import). It differs in two ways:
// the seed salts every machine's hash, and the cumulative counters (CPU
// idle, sent and received bytes) grow with uptime, so that the merged
// trace passes the streamed trace doctor.

// gridSource is an arithmetic ddc.PureSource: every field of a snapshot
// is derived from a hash of (seed, machine ID, instant). No per-machine
// state exists, so a 100k-machine fleet costs only its ID strings.
type gridSource struct {
	start time.Time
	seed  uint64
}

func (g gridSource) Reachable(id string, at time.Time) bool { return true }

func (g gridSource) Snapshot(id string, at time.Time) (machine.Snapshot, bool) {
	h := fnv.New64a()
	h.Write([]byte(id))
	m := h.Sum64() ^ g.seed*0x9e3779b97f4a7c15
	mix := m ^ uint64(at.Unix())*0x9e3779b97f4a7c15
	boot := g.start.Add(-time.Duration(m%72) * time.Hour)
	up := at.Sub(boot)
	upS := uint64(up / time.Second)
	return machine.Snapshot{
		Time: at, ID: id, Lab: gridLab(id),
		CPUModel: "Intel(R) Pentium(R) 4 CPU 2.40GHz", CPUGHz: 2.4,
		RAMMB: 512, SwapMB: 768, DiskGB: 74.5,
		Serial: "GRID-" + id, OS: "Windows XP",
		BootTime: boot, Uptime: up,
		CPUIdle:     up * time.Duration(50+m%50) / 100,
		MemLoadPct:  int(mix % 101),
		SwapLoadPct: int(mix >> 8 % 101),
		FreeDiskGB:  float64(mix%60000) / 1000,
		PowerCycles: int64(m % 2000), PowerOnHours: int64(m % 30000),
		SentBytes: upS * (1 + m%4096), RecvBytes: upS * (1 + m>>16%4096),
	}, true
}

// gridFleet builds n machine IDs ("G<lab>-m<index>", 100 machines per
// lab) and the matching catalogue metadata.
func gridFleet(n int) ([]string, []trace.MachineInfo) {
	ids := make([]string, n)
	infos := make([]trace.MachineInfo, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("G%03d-m%06d", i/100, i)
		infos[i] = trace.MachineInfo{
			ID: ids[i], Lab: gridLab(ids[i]),
			RAMMB: 512, DiskGB: 74.5, IntIndex: 30.5, FPIndex: 33.1,
		}
	}
	return ids, infos
}

func gridLab(id string) string { return id[:4] }

// chunker rolls one shard's samples into time-chunked segment files:
// every chunkIters iterations the current sink is frozen, written as a
// TBv1 segment, and replaced — bounding the shard's resident samples to
// one chunk. Runs entirely on the shard's goroutine.
type chunker struct {
	dir        string
	shard      int
	infos      []trace.MachineInfo
	period     time.Duration
	chunkIters int
	runEnd     time.Time

	tr     *tracer
	parent *openSpan // span the segment writes are booked under
	round  int

	sink  *ddc.DatasetSink
	count int
	segs  []trace.SegmentInfo
	err   error
}

func (c *chunker) post(iter int, machineID string, stdout []byte, err error) {
	c.sink.Post(iter, machineID, stdout, err)
}

func (c *chunker) onIteration(info ddc.IterationInfo) {
	c.sink.OnIteration(info)
	c.count++
	if c.count >= c.chunkIters {
		c.flush()
	}
}

func (c *chunker) newSink(start time.Time) {
	end := start.Add(time.Duration(c.chunkIters) * c.period)
	if end.After(c.runEnd) {
		end = c.runEnd
	}
	c.sink = ddc.NewDatasetSink(start, end, c.period, c.infos)
	c.count = 0
}

// flush freezes the current chunk, writes it as a segment and opens the
// next sink window.
func (c *chunker) flush() {
	ds, err := c.sink.Dataset()
	if err != nil && c.err == nil {
		c.err = err
	}
	nextStart := ds.End
	if len(ds.Samples) > 0 || len(ds.Iterations) > 0 {
		sp := c.tr.start(c.parent, c.round, "trace.segment_write")
		ds.SortSamples()
		name := fmt.Sprintf("grid-%03d-%03d.tb", c.shard, len(c.segs))
		path := filepath.Join(c.dir, name)
		if err := trace.WriteFileFormat(path, ds, trace.FormatTB); err != nil && c.err == nil {
			c.err = err
		}
		c.segs = append(c.segs, trace.NewSegmentInfo(name, c.shard, ds))
		size, _ := fileSize(path) // a missing file already set c.err above
		sp.end(int64(len(ds.Samples)), size)
	}
	c.newSink(nextStart)
}

// gridOut is what one grid_shards round produced.
type gridOut struct {
	stats    ddc.Stats
	manifest *trace.Manifest
	merged   string
	counted  uint64
	machines int
}

// gridRound is grid-scale collection end to end: a sharded collection
// over the arithmetic fleet into chunked TBv1 segments, the manifest,
// the streaming compaction to one file, and a cursor count of that file.
func gridRound(tr *tracer, root *openSpan, round int, dir string, seed int64, ids []string, infos []trace.MachineInfo, iters int) (*gridOut, error) {
	start := time.Date(2003, 10, 6, 8, 0, 0, 0, time.UTC)
	period := 15 * time.Minute
	end := start.Add(time.Duration(iters) * period)

	sp := tr.start(root, round, "ddc.shard_collect")
	parts := ddc.PartitionN(ids, gridShards)
	chunkers := make([]*chunker, len(parts))
	specs := make([]ddc.ShardSpec, len(parts))
	at := 0
	for i, part := range parts {
		ck := &chunker{
			dir: dir, shard: i, infos: infos[at : at+len(part)],
			period: period, chunkIters: gridChunkIters, runEnd: end,
			tr: tr, parent: sp, round: round,
		}
		ck.newSink(start)
		at += len(part)
		chunkers[i] = ck
		specs[i] = ddc.ShardSpec{Machines: part, Post: ck.post, OnIteration: ck.onIteration}
	}
	eng := sim.New(start)
	// Sequential probing must fit the period at grid scale: 100k probes
	// × 500µs = 50 simulated seconds per sweep, well inside 15 minutes.
	lat := func() time.Duration { return 500 * time.Microsecond }
	coll := &ddc.ShardedCollector{
		Cfg:    ddc.Config{Period: period, LatencyOK: lat, LatencyFail: lat},
		Exec:   &ddc.PureDirect{Source: gridSource{start: start, seed: uint64(seed)}, Now: eng.Now},
		Shards: specs,
	}
	if err := coll.Install(eng, start, end); err != nil {
		return nil, err
	}
	eng.RunUntil(end)
	coll.Finish()
	m := &trace.Manifest{Start: start, End: end, PeriodNS: period}
	for _, ck := range chunkers {
		ck.flush() // final partial chunk
		if ck.err != nil {
			return nil, fmt.Errorf("shard %d: %w", ck.shard, ck.err)
		}
		m.Segments = append(m.Segments, ck.segs...)
	}
	stats := coll.Stats()
	sp.end(int64(stats.Samples), 0)

	sp = tr.start(root, round, "trace.write_manifest")
	sort.Slice(m.Segments, func(a, b int) bool {
		sa, sb := m.Segments[a], m.Segments[b]
		if sa.Shard != sb.Shard {
			return sa.Shard < sb.Shard
		}
		return sa.FirstIter < sb.FirstIter
	})
	if err := trace.WriteManifest(filepath.Join(dir, "grid.manifest.json"), m); err != nil {
		return nil, err
	}
	sp.end(int64(len(m.Segments)), 0)

	out := &gridOut{stats: stats, manifest: m, merged: filepath.Join(dir, "grid-merged.tb")}
	sp = tr.start(root, round, "trace.merge")
	f, err := os.Create(out.merged)
	if err != nil {
		return nil, err
	}
	if err := trace.MergeSegments(f, m, dir); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	size, err := fileSize(out.merged)
	if err != nil {
		return nil, err
	}
	sp.end(int64(stats.Samples), size)

	sp = tr.start(root, round, "trace.cursor_count")
	c, err := stream.Open(out.merged)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	var run stream.Run
	for {
		ok, err := c.NextRun(&run)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		out.counted += uint64(len(run.Samples))
	}
	out.machines = len(c.Machines())
	sp.end(int64(out.counted), size)
	return out, nil
}

func runGridShards(p *phase) error {
	var ids []string
	var infos []trace.MachineInfo
	err := p.setup(p.sh.Setups, func() error {
		ids, infos = gridFleet(p.sh.GridMachines)
		n := p.sh.GridWarmMachines
		_, err := gridRound(nil, nil, 0, p.spec.Dir, p.spec.Seed, ids[:n], infos[:n], gridChunkIters)
		return err
	})
	if err != nil {
		return err
	}

	var merged string
	want := uint64(p.sh.GridMachines) * uint64(p.sh.GridIters)
	err = p.measure(func(round int, root *openSpan) (func() error, error) {
		out, err := gridRound(p.tr, root, round, p.spec.Dir, p.spec.Seed, ids, infos, p.sh.GridIters)
		if err != nil {
			return nil, err
		}
		return func() error {
			p.res.Attempted += int64(out.stats.Attempts)
			// Every machine of the arithmetic fleet is reachable: a probe
			// without a sample is an unexpected failure.
			p.res.Failed += int64(out.stats.Attempts - out.stats.Samples)
			p.check("merged-count-equals-collector", out.counted == uint64(out.stats.Samples) && out.counted == want)
			p.check("merged-catalogue", out.machines == p.sh.GridMachines)
			p.check("manifest-clean", check.CheckManifest(out.manifest, p.spec.Dir, check.Options{}).OK())
			p.countCollector(out.stats, 0)
			p.res.Metrics["trace.segments"] = float64(len(out.manifest.Segments))
			merged, p.samples = out.merged, int(out.counted)
			return p.digestTB(round, merged)
		}, nil
	})
	if err != nil {
		return err
	}
	return p.doctorTB(merged, int64(want))
}
