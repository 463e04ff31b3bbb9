package bench

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"winlab/internal/ddc"
	"winlab/internal/gridfleet"
	"winlab/internal/sim"
	"winlab/internal/trace"
	"winlab/internal/trace/check"
	"winlab/internal/trace/stream"
)

// ---------------------------------------------------------------------------
// Grid-scale collection smoke (`make gridscale`) and the sharded
// collection benchmark.
//
// The paper's fleet is 169 machines; the sharded collector exists so the
// same coordinator architecture holds at grid scale — ≥100k machines —
// without ever materialising the fleet dataset. The harness probes an
// arithmetic PureSource (snapshots are pure functions of (machine,
// instant), so the render work runs on the shard goroutines), writes
// each shard's samples out as time-chunked TBv1 segment files as they
// fill, and compacts the segments with the streaming merger. Peak live
// heap is asserted against a per-shard ceiling: the resident state is
// one chunk of samples per shard plus catalogues, never machines×iters.
// The fleet and the chunked collection live in internal/gridfleet.

func gridEnvInt(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// TestGridScale is the grid-scale gate. Defaults are CI-sized (20k
// machines × 6 iterations); `make gridscale` raises them to 100k × 12.
// The whole run — sharded collection, chunked segment write-out,
// manifest check, streaming compaction, cursor count of the compacted
// trace — executes under a monitored heap ceiling of 64 MB per shard,
// the documented bound: resident state is one chunk of samples per shard
// plus fleet catalogues, never the machines×iterations dataset.
func TestGridScale(t *testing.T) {
	if testing.Short() {
		t.Skip("grid-scale smoke collects tens of thousands of machines")
	}
	machines := gridEnvInt("GRIDSCALE_MACHINES", 20000)
	iters := gridEnvInt("GRIDSCALE_ITERS", 6)
	const shards = 8
	const chunkIters = 4
	const perShardCeiling = 64 << 20
	const ceiling = int64(shards * perShardCeiling)
	dir := t.TempDir()

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	baseline := ms.HeapAlloc
	old := debug.SetMemoryLimit(int64(baseline) + ceiling)
	defer debug.SetMemoryLimit(old)

	var peak atomic.Uint64
	done := make(chan struct{})
	go func() {
		defer close(done)
		var m runtime.MemStats
		for {
			runtime.ReadMemStats(&m)
			for {
				p := peak.Load()
				if m.HeapAlloc <= p || peak.CompareAndSwap(p, m.HeapAlloc) {
					break
				}
			}
			select {
			case <-done:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()

	mpath, stats, err := gridfleet.Collect(dir, 0, machines, shards, iters, chunkIters)
	if err != nil {
		t.Fatal(err)
	}
	m, err := trace.ReadManifest(mpath)
	if err != nil {
		t.Fatal(err)
	}
	if r := check.CheckManifest(m, dir, check.Options{}); !r.OK() {
		t.Fatalf("manifest check: %v", r.Err())
	}

	// Streaming compaction straight to disk, then count the samples of
	// the compacted trace through a cursor — still never materialised.
	merged, err := os.Create(filepath.Join(dir, "grid-merged.tb"))
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.MergeSegments(merged, m, dir); err != nil {
		t.Fatal(err)
	}
	if err := merged.Close(); err != nil {
		t.Fatal(err)
	}
	c, err := stream.Open(filepath.Join(dir, "grid-merged.tb"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var total uint64
	var run stream.Run
	for {
		ok, err := c.NextRun(&run)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		total += uint64(len(run.Samples))
	}
	done <- struct{}{}
	<-done

	want := uint64(machines) * uint64(iters)
	if total != want || uint64(stats.Samples) != want {
		t.Fatalf("compacted trace has %d samples, collector booked %d, want %d", total, stats.Samples, want)
	}
	if len(c.Machines()) != machines {
		t.Fatalf("compacted catalogue has %d machines, want %d", len(c.Machines()), machines)
	}

	grew := int64(peak.Load()) - int64(baseline)
	if grew > ceiling {
		t.Errorf("peak heap grew %d B over baseline, ceiling %d B (%d MB/shard × %d shards)",
			grew, ceiling, perShardCeiling>>20, shards)
	}
	t.Logf("%d machines × %d iters across %d shards (%d segments): heap growth %0.1f MB, ceiling %d MB",
		machines, iters, shards, len(m.Segments), float64(grew)/(1<<20), ceiling>>20)
}

// TestGridMergedDigest pins the merged trace of pipebench's grid_shards
// layout (two shards, four-iteration chunks) to the FNV-64a digests its
// ledger records: the segment encoder and the compactor may get faster,
// never different. The smoke-sized row always runs; `make gridscale`
// (100k × 12) adds the three full-size ledger rows.
func TestGridMergedDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("collects thousands of machines")
	}
	type row struct {
		machines, iters int
		seed            uint64
		digest          string
	}
	rows := []row{{2000, 4, 1, "cd1a40edc110cbaf"}}
	if gridEnvInt("GRIDSCALE_MACHINES", 0) == 100000 && gridEnvInt("GRIDSCALE_ITERS", 0) == 12 {
		rows = append(rows,
			row{100000, 12, 1, "4365a7f474e507f0"},
			row{100000, 12, 2, "c6b02014f7447788"},
			row{100000, 12, 3, "c0f1b35b0c6e32fc"})
	}
	for _, row := range rows {
		dir := t.TempDir()
		mpath, _, err := gridfleet.Collect(dir, row.seed, row.machines, 2, row.iters, 4)
		if err != nil {
			t.Fatal(err)
		}
		m, err := trace.ReadManifest(mpath)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		if err := trace.MergeSegments(h, m, dir); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%016x", h.Sum64()); got != row.digest {
			t.Errorf("%d machines × %d iters, seed %d: merged digest %s, want %s",
				row.machines, row.iters, row.seed, got, row.digest)
		}
	}
}

// BenchmarkShardedCollection measures sharded collection wall time on a
// paper-scale fleet at 1/2/4/8 shards: one simulated day (96 iterations)
// of 169 machines per op. The serial residue per probe is the scheduling
// chain's reachability check and RNG draw; the render/parse/commit work
// scales with shard count (the PR 8 acceptance bar is ≥3× at 8 shards
// over 1 shard).
func BenchmarkShardedCollection(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			ids, infos := gridfleet.Fleet(169)
			start := time.Date(2003, 10, 6, 8, 0, 0, 0, time.UTC)
			period := 15 * time.Minute
			end := start.AddDate(0, 0, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				parts := ddc.PartitionN(ids, shards)
				specs := make([]ddc.ShardSpec, len(parts))
				sinks := make([]*ddc.DatasetSink, len(parts))
				at := 0
				for s, part := range parts {
					sink := ddc.NewDatasetSink(start, end, period, infos[at:at+len(part)])
					at += len(part)
					sinks[s] = sink
					specs[s] = ddc.ShardSpec{Machines: part, Post: sink.Post, OnIteration: sink.OnIteration}
				}
				eng := sim.New(start)
				lat := func() time.Duration { return 800 * time.Millisecond }
				coll := &ddc.ShardedCollector{
					Cfg:    ddc.Config{Period: period, LatencyOK: lat, LatencyFail: lat},
					Exec:   &ddc.PureDirect{Source: gridfleet.Source{Start: start}, Now: eng.Now},
					Shards: specs,
				}
				if err := coll.Install(eng, start, end); err != nil {
					b.Fatal(err)
				}
				eng.RunUntil(end)
				coll.Finish()
				if got := coll.Stats().Samples; got != 169*96 {
					b.Fatalf("samples = %d", got)
				}
			}
		})
	}
}
