// Package gridfleet is the grid-scale load fixture: an arithmetic fleet
// (snapshots are pure functions of seed, machine and instant, so 100k
// machines cost only their ID strings) and a sharded collection that
// rolls each shard's samples into time-chunked TBv1 segment files plus
// their manifest. TestGridScale, the grid benchmarks and `make
// profile-grid` all drive the trace layer through it.
//
// tools/pipebench carries its own copy of the same generator (its path
// is benchmark-protected, so it cannot import this one); the two produce
// identical segments for equal seeds.
package gridfleet

import (
	"fmt"
	"hash/fnv"
	"path/filepath"
	"sort"
	"time"

	"winlab/internal/ddc"
	"winlab/internal/machine"
	"winlab/internal/sim"
	"winlab/internal/trace"
)

// period is the sampling period of every grid collection (the paper's
// 15 minutes).
const period = 15 * time.Minute

// Source is an arithmetic ddc.PureSource: every field of a snapshot is
// derived from a hash of (seed, machine ID, instant). The cumulative
// counters (CPU idle, sent and received bytes) grow with uptime, so a
// collected trace passes the streamed trace doctor.
type Source struct {
	Start time.Time
	Seed  uint64
}

func (g Source) Reachable(id string, at time.Time) bool { return true }

func (g Source) Snapshot(id string, at time.Time) (machine.Snapshot, bool) {
	h := fnv.New64a()
	h.Write([]byte(id))
	m := h.Sum64() ^ g.Seed*0x9e3779b97f4a7c15
	mix := m ^ uint64(at.Unix())*0x9e3779b97f4a7c15
	boot := g.Start.Add(-time.Duration(m%72) * time.Hour)
	up := at.Sub(boot)
	upS := uint64(up / time.Second)
	return machine.Snapshot{
		Time: at, ID: id, Lab: lab(id),
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

// Fleet builds n machine IDs ("G<lab>-m<index>", 100 machines per lab)
// and the matching catalogue metadata.
func Fleet(n int) ([]string, []trace.MachineInfo) {
	ids := make([]string, n)
	infos := make([]trace.MachineInfo, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("G%03d-m%06d", i/100, i)
		infos[i] = trace.MachineInfo{
			ID: ids[i], Lab: lab(ids[i]),
			RAMMB: 512, DiskGB: 74.5, IntIndex: 30.5, FPIndex: 33.1,
		}
	}
	return ids, infos
}

// lab returns the lab a fleet machine ID belongs to.
func lab(id string) string { return id[:4] }

// chunker rolls one shard's samples into time-chunked segment files:
// every chunkIters iterations the current sink is frozen, written as a
// TBv1 segment, and replaced — bounding the shard's resident samples to
// one chunk. Runs entirely on the shard's goroutine.
type chunker struct {
	dir        string
	shard      int
	infos      []trace.MachineInfo
	chunkIters int
	runEnd     time.Time

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
	end := start.Add(time.Duration(c.chunkIters) * period)
	if end.After(c.runEnd) {
		end = c.runEnd
	}
	c.sink = ddc.NewDatasetSink(start, end, period, c.infos)
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
		ds.SortSamples()
		name := fmt.Sprintf("grid-%03d-%03d.tb", c.shard, len(c.segs))
		if err := trace.WriteFileFormat(filepath.Join(c.dir, name), ds, trace.FormatTB); err != nil && c.err == nil {
			c.err = err
		}
		c.segs = append(c.segs, trace.NewSegmentInfo(name, c.shard, ds))
	}
	c.newSink(nextStart)
}

// Collect runs a sharded collection of iters iterations over the first
// machines IDs of the fleet, writing chunkIters-iteration segment files
// and "grid.manifest.json" into dir. It returns the manifest path and
// the collector's fleet-wide stats.
func Collect(dir string, seed uint64, machines, shards, iters, chunkIters int) (string, ddc.Stats, error) {
	ids, infos := Fleet(machines)
	start := time.Date(2003, 10, 6, 8, 0, 0, 0, time.UTC)
	end := start.Add(time.Duration(iters) * period)

	parts := ddc.PartitionN(ids, shards)
	chunkers := make([]*chunker, len(parts))
	specs := make([]ddc.ShardSpec, len(parts))
	at := 0
	for i, part := range parts {
		ck := &chunker{
			dir: dir, shard: i, infos: infos[at : at+len(part)],
			chunkIters: chunkIters, runEnd: end,
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
		Exec:   &ddc.PureDirect{Source: Source{Start: start, Seed: seed}, Now: eng.Now},
		Shards: specs,
	}
	if err := coll.Install(eng, start, end); err != nil {
		return "", ddc.Stats{}, err
	}
	eng.RunUntil(end)
	coll.Finish()

	m := &trace.Manifest{Start: start, End: end, PeriodNS: period}
	for _, ck := range chunkers {
		ck.flush() // final partial chunk
		if ck.err != nil {
			return "", ddc.Stats{}, fmt.Errorf("shard %d: %w", ck.shard, ck.err)
		}
		m.Segments = append(m.Segments, ck.segs...)
	}
	sort.Slice(m.Segments, func(a, b int) bool {
		sa, sb := m.Segments[a], m.Segments[b]
		if sa.Shard != sb.Shard {
			return sa.Shard < sb.Shard
		}
		return sa.FirstIter < sb.FirstIter
	})
	mpath := filepath.Join(dir, "grid.manifest.json")
	if err := trace.WriteManifest(mpath, m); err != nil {
		return "", ddc.Stats{}, err
	}
	return mpath, coll.Stats(), nil
}
