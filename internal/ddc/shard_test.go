package ddc

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"winlab/internal/machine"
	"winlab/internal/probe"
	"winlab/internal/sim"
	"winlab/internal/telemetry"
	"winlab/internal/trace"
)

// TestPartitionNProperty: for every fleet size and shard count
// (including N > machines and ragged splits), the partition covers the
// fleet exactly once — concatenation equals the input, no part empty,
// and part sizes differ by at most one.
func TestPartitionNProperty(t *testing.T) {
	for size := 0; size <= 20; size++ {
		ids := make([]string, size)
		for i := range ids {
			ids[i] = fmt.Sprintf("m%02d", i)
		}
		for n := 1; n <= 16; n++ {
			parts := PartitionN(ids, n)
			if size == 0 {
				if parts != nil {
					t.Fatalf("size 0 n %d: non-nil partition", n)
				}
				continue
			}
			want := n
			if want > size {
				want = size
			}
			if len(parts) != want {
				t.Fatalf("size %d n %d: %d parts, want %d", size, n, len(parts), want)
			}
			var concat []string
			min, max := size, 0
			for _, p := range parts {
				if len(p) == 0 {
					t.Fatalf("size %d n %d: empty part", size, n)
				}
				if len(p) < min {
					min = len(p)
				}
				if len(p) > max {
					max = len(p)
				}
				concat = append(concat, p...)
			}
			if !reflect.DeepEqual(concat, ids) {
				t.Fatalf("size %d n %d: concatenation is not the fleet: %v", size, n, concat)
			}
			if max-min > 1 {
				t.Fatalf("size %d n %d: ragged beyond one (%d..%d)", size, n, min, max)
			}
		}
	}
}

// TestPartitionLabAlignedProperty: same exactly-once coverage, plus the
// lab-alignment contract — no contiguous lab run is split across parts.
func TestPartitionLabAlignedProperty(t *testing.T) {
	// Lab layouts: runs of machines per lab, including degenerate shapes.
	layouts := [][]int{
		{1}, {5}, {1, 1, 1}, {3, 1, 4, 1, 5}, {10, 1, 1}, {1, 1, 10},
		{2, 2, 2, 2, 2, 2, 2, 2}, {7, 7, 7}, {1, 2, 3, 4, 5, 6},
	}
	for li, layout := range layouts {
		var infos []trace.MachineInfo
		for lab, count := range layout {
			for i := 0; i < count; i++ {
				infos = append(infos, trace.MachineInfo{
					ID:  fmt.Sprintf("l%02d-m%02d", lab, i),
					Lab: fmt.Sprintf("L%02d", lab),
				})
			}
		}
		for n := 1; n <= 16; n++ {
			parts := PartitionLabAligned(infos, n)
			if len(parts) == 0 || len(parts) > n {
				t.Fatalf("layout %d n %d: %d parts", li, n, len(parts))
			}
			var concat []trace.MachineInfo
			labPart := map[string]int{}
			for pi, p := range parts {
				if len(p) == 0 {
					t.Fatalf("layout %d n %d: empty part", li, n)
				}
				concat = append(concat, p...)
				for _, mi := range p {
					if prev, ok := labPart[mi.Lab]; ok && prev != pi {
						t.Fatalf("layout %d n %d: lab %s split across parts %d and %d", li, n, mi.Lab, prev, pi)
					}
					labPart[mi.Lab] = pi
				}
			}
			if !reflect.DeepEqual(concat, infos) {
				t.Fatalf("layout %d n %d: concatenation is not the fleet", li, n)
			}
			if n >= len(layout) && len(parts) != len(layout) {
				t.Fatalf("layout %d n %d: %d parts, want one per lab (%d)", li, n, len(parts), len(layout))
			}
		}
	}
}

// shardedFixtureFleet builds a 3-machine fleet: M1/M3 up, M2 never
// powered on.
func shardedFixtureFleet() multiSource {
	src := multiSource{ms: map[string]*machine.Machine{}}
	for _, id := range []string{"M1", "M3"} {
		m := newMachine(id)
		m.PowerOn(t0.Add(-time.Hour))
		src.ms[id] = m
	}
	src.ms["M2"] = newMachine("M2")
	return src
}

// shardRun is everything one finished collection exposes.
type shardRun struct {
	coll   *ShardedCollector
	merged *trace.Dataset   // MergeSharded over the per-shard sinks
	infos  []IterationInfo  // what the global OnIteration saw
	prom   string           // rendered metrics
	spans  []telemetry.Span // probe spans, wall-clock stamps stripped
}

// shardSinks builds one sink per part and the shard specs feeding them.
func shardSinks(parts [][]string, end time.Time, period time.Duration) ([]*DatasetSink, []ShardSpec) {
	sinks := make([]*DatasetSink, len(parts))
	shards := make([]ShardSpec, len(parts))
	for i, p := range parts {
		sinks[i] = NewDatasetSink(t0, end, period, nil)
		shards[i] = ShardSpec{Machines: p, Post: sinks[i].Post, OnIteration: sinks[i].OnIteration}
	}
	return sinks, shards
}

// runShards collects the given fleet partition over [t0, end) with one
// sink per shard and the collector — not the sinks, whose per-shard
// iteration counters legitimately scale with the shard count —
// instrumented. mkExec builds the executor against the
// run's own engine.
func runShards(t *testing.T, cfg Config, end time.Time, parts [][]string, mkExec func(*sim.Engine) Executor) shardRun {
	t.Helper()
	reg := telemetry.NewRegistry()
	eng := sim.New(t0)
	sinks, shards := shardSinks(parts, end, cfg.Period)
	var r shardRun
	r.coll = &ShardedCollector{
		Cfg:         cfg,
		Exec:        mkExec(eng),
		Shards:      shards,
		OnIteration: func(info IterationInfo) { r.infos = append(r.infos, info) },
		Telemetry:   reg,
	}
	if err := r.coll.Install(eng, t0, end); err != nil {
		t.Fatal(err)
	}
	for eng.Step() {
	}
	r.coll.Finish()

	shardDS := make([]*trace.Dataset, len(sinks))
	for i, s := range sinks {
		ds, err := s.Dataset()
		if err != nil {
			t.Fatal(err)
		}
		ds.SortSamples()
		shardDS[i] = ds
	}
	var err error
	if r.merged, err = trace.MergeSharded(shardDS...); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	r.prom = buf.String()
	// Spans are wall-clock stamped at Record time; everything else — order
	// included — is part of the contract.
	for _, sp := range reg.Spans().Snapshot() {
		sp.Time = time.Time{}
		r.spans = append(r.spans, sp)
	}
	return r
}

// TestShardedCollectorMatchesSerial is the identity contract at unit
// scale: a 2-shard run over per-shard sinks, merged with MergeSharded,
// must reproduce the one-shard (serial) run's dataset, fleet-wide stats,
// metrics and probe spans bit for bit, and SumShardStats must fold the
// per-shard stats back into the fleet-wide ones. (Seed-scale identity is
// asserted by internal/validate's shard arms and the experiment golden
// digests.) Under -race this also exercises the engine → shard hand-off.
func TestShardedCollectorMatchesSerial(t *testing.T) {
	end := t0.Add(46 * time.Minute)
	mkCfg := func() Config {
		// Twin deterministic latency schedules: latency depends only on
		// draw order, which the identity argument says is shared.
		okN, failN := 0, 0
		return Config{
			Period: 15 * time.Minute,
			LatencyOK: func() time.Duration {
				okN++
				return time.Second + time.Duration(okN)*7*time.Millisecond
			},
			LatencyFail: func() time.Duration {
				failN++
				return 4*time.Second + time.Duration(failN)*13*time.Millisecond
			},
			Outages: []Outage{{Start: t0.Add(15 * time.Minute), End: t0.Add(16 * time.Minute)}},
		}
	}
	direct := func(eng *sim.Engine) Executor {
		return &Direct{Source: shardedFixtureFleet(), Now: eng.Now}
	}
	serial := runShards(t, mkCfg(), end, [][]string{{"M1", "M2", "M3"}}, direct)
	sharded := runShards(t, mkCfg(), end, [][]string{{"M1", "M2"}, {"M3"}}, direct)

	if len(serial.merged.Samples) == 0 || len(serial.merged.Iterations) != 3 {
		t.Fatalf("degenerate serial run: %d samples, %d iterations", len(serial.merged.Samples), len(serial.merged.Iterations))
	}
	if !reflect.DeepEqual(sharded.merged.Samples, serial.merged.Samples) {
		t.Error("merged shard samples differ from serial run")
	}
	if !reflect.DeepEqual(sharded.merged.Iterations, serial.merged.Iterations) {
		t.Errorf("merged iterations differ:\nsharded %+v\nserial  %+v", sharded.merged.Iterations, serial.merged.Iterations)
	}
	if !reflect.DeepEqual(sharded.coll.Stats(), serial.coll.Stats()) {
		t.Errorf("stats differ:\nsharded %+v\nserial  %+v", sharded.coll.Stats(), serial.coll.Stats())
	}
	if got := SumShardStats(sharded.coll.ShardStats()); !reflect.DeepEqual(got, sharded.coll.Stats()) {
		t.Errorf("SumShardStats != Stats:\nsum   %+v\ntotal %+v", got, sharded.coll.Stats())
	}
	if serial.prom != sharded.prom {
		t.Errorf("metrics differ:\nserial:\n%s\nsharded:\n%s", serial.prom, sharded.prom)
	}
	if !reflect.DeepEqual(serial.spans, sharded.spans) {
		t.Error("probe spans differ between one and two shards")
	}
	// Global OnIteration saw every run iteration with fleet-wide counts.
	if len(sharded.infos) != serial.coll.Stats().Iterations {
		t.Fatalf("global OnIteration fired %d times, want %d", len(sharded.infos), serial.coll.Stats().Iterations)
	}
	for _, info := range sharded.infos {
		if info.Attempted != 3 || info.Responded != 2 {
			t.Errorf("iteration %d: attempted %d responded %d, want 3/2", info.Iter, info.Attempted, info.Responded)
		}
	}
}

// TestParseErrorsBookedPerIteration drives garbage reports through a
// plain Executor (no append path: the chain copies its output into the
// arena) and checks the sinks book them — parsed on the shard goroutine,
// attributed to the iteration that collected them — identically for one
// and two shards.
func TestParseErrorsBookedPerIteration(t *testing.T) {
	m := newMachine("M1")
	m.PowerOn(t0)
	good := probe.AppendRender(nil, mustSnapshot(t, m, t0.Add(5*time.Minute)))

	end := t0.Add(16 * time.Minute) // iterations at 0 and 15
	run := func(parts [][]string) []*DatasetSink {
		exec := &fakeExec{
			up: map[string]bool{"M1": true, "M2": true},
			payload: func(id string) []byte {
				if id == "M2" {
					return []byte("garbage")
				}
				return good
			},
		}
		eng := sim.New(t0)
		sinks, shards := shardSinks(parts, end, 15*time.Minute)
		coll := &ShardedCollector{Cfg: Config{Period: 15 * time.Minute}, Exec: exec, Shards: shards}
		if err := coll.Install(eng, t0, end); err != nil {
			t.Fatal(err)
		}
		for eng.Step() {
		}
		coll.Finish()
		return sinks
	}

	one := run([][]string{{"M1", "M2"}})[0]
	two := run([][]string{{"M1"}, {"M2"}})
	if one.ParseErrors != 2 || two[0].ParseErrors != 0 || two[1].ParseErrors != 2 {
		t.Fatalf("parse errors: one shard %d, two shards %d+%d, want 2 and 0+2",
			one.ParseErrors, two[0].ParseErrors, two[1].ParseErrors)
	}
	ds1, e1 := one.Dataset()
	if e1 == nil {
		t.Fatal("parse error not surfaced by Dataset()")
	}
	if _, e2 := two[1].Dataset(); e2 == nil {
		t.Fatal("parse error not surfaced by the owning shard's Dataset()")
	}
	if len(ds1.Samples) != 2 || ds1.Samples[0].Machine != "M1" {
		t.Errorf("samples = %+v, want M1's two good reports", ds1.Samples)
	}
	if ds1.Iterations[0].ParseErrors != 1 || ds1.Iterations[1].ParseErrors != 1 {
		t.Errorf("per-iteration parse-error attribution: %+v", ds1.Iterations)
	}
	dsM1, _ := two[0].Dataset()
	dsM2, _ := two[1].Dataset()
	if !reflect.DeepEqual(dsM1.Samples, ds1.Samples) || len(dsM2.Samples) != 0 {
		t.Error("two-shard samples differ from the one-shard run")
	}
	if dsM2.Iterations[0].ParseErrors != 1 || dsM2.Iterations[1].ParseErrors != 1 {
		t.Errorf("two-shard parse-error attribution: %+v", dsM2.Iterations)
	}
}

// pureFake is a minimal PureSource: state is a pure function of
// (id, instant), so snapshots may run on any goroutine.
type pureFake struct{ down map[string]bool }

func (s pureFake) Snapshot(id string, at time.Time) (machine.Snapshot, bool) {
	if s.down[id] {
		return machine.Snapshot{}, false
	}
	return machine.Snapshot{
		Time: at, ID: id, Lab: "L01",
		CPUModel: "P4", CPUGHz: 2.4, RAMMB: 512, DiskGB: 74.5, Serial: "D-" + id,
		BootTime: t0.Add(-time.Hour), Uptime: at.Sub(t0.Add(-time.Hour)),
		CPUIdle: at.Sub(t0.Add(-time.Hour)) / 2, FreeDiskGB: 30,
		PowerCycles: 12, PowerOnHours: 400,
	}, true
}

func (s pureFake) Reachable(id string, at time.Time) bool { return !s.down[id] }

// TestPureDirectSharded drives both outcome shapes over the same pure
// source: the AtExecutor path (reachability decided on the scheduling
// chain, snapshot deferred to the shard goroutine) across three shards
// must collect exactly what Direct — executed synchronously on the
// chain — collects on one.
func TestPureDirectSharded(t *testing.T) {
	end := t0.Add(46 * time.Minute)
	src := pureFake{down: map[string]bool{"M2": true}}
	ids := []string{"M1", "M2", "M3", "M4", "M5"}
	cfg := Config{Period: 15 * time.Minute}

	serial := runShards(t, cfg, end, [][]string{ids}, func(eng *sim.Engine) Executor {
		return &Direct{Source: src, Now: eng.Now}
	})
	sharded := runShards(t, cfg, end, PartitionN(ids, 3), func(eng *sim.Engine) Executor {
		return &PureDirect{Source: src, Now: eng.Now}
	})

	if len(sharded.merged.Samples) != 4*serial.coll.Stats().Iterations {
		t.Fatalf("sample count %d, want %d", len(sharded.merged.Samples), 4*serial.coll.Stats().Iterations)
	}
	if !reflect.DeepEqual(sharded.merged.Samples, serial.merged.Samples) {
		t.Error("PureDirect sharded samples differ from serial Direct run")
	}
	if !reflect.DeepEqual(sharded.merged.Iterations, serial.merged.Iterations) {
		t.Error("PureDirect sharded iterations differ from serial Direct run")
	}
}

// TestShardedCollectorRejections pins the Install-time guard rails.
func TestShardedCollectorRejections(t *testing.T) {
	eng := sim.New(t0)
	end := t0.Add(time.Hour)

	// No shards.
	c := &ShardedCollector{Cfg: Config{Period: time.Minute}}
	if err := c.Install(eng, t0, end); err == nil {
		t.Error("no shards accepted")
	}

	// Duplicate machine across shards.
	c = &ShardedCollector{
		Cfg:  Config{Period: time.Minute},
		Exec: &Direct{Source: shardedFixtureFleet(), Now: eng.Now},
		Shards: []ShardSpec{
			{Machines: []string{"M1", "M2"}},
			{Machines: []string{"M2"}},
		},
	}
	err := c.Install(eng, t0, end)
	if err == nil || !strings.Contains(err.Error(), "M2") {
		t.Errorf("duplicate machine: err = %v", err)
	}
}

// snapSource serves fixed, prebuilt snapshots: probing it allocates
// nothing, so what a collection allocates is the collector's own.
type snapSource map[string]machine.Snapshot

func (s snapSource) Snapshot(id string, at time.Time) (machine.Snapshot, bool) {
	sn, ok := s[id]
	return sn, ok
}

// TestSweepAllocatesNoPerProbeObject: in steady state a one-shard
// iteration over the paper-sized fleet (169 machines) allocates nothing
// per probe — batch, report arena, error and offset slices are pooled,
// and the chain re-arms the one sim.Event its sweep owns through one
// bound step function. What is left is per iteration: the sweep, its
// batch list and the bound method.
func TestSweepAllocatesNoPerProbeObject(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	const machines = 169
	src := snapSource{}
	ids := make([]string, machines)
	for i := range ids {
		ids[i] = fmt.Sprintf("M%03d", i)
		if i%3 == 0 {
			continue // a third of the fleet is powered off: the error path
		}
		sn, _ := pureFake{}.Snapshot(ids[i], t0)
		src[ids[i]] = sn
	}
	period := 15 * time.Minute
	eng := sim.New(t0)
	committed := 0
	coll := &ShardedCollector{
		Cfg:  Config{Period: period},
		Exec: &Direct{Source: src, Now: eng.Now},
		Shards: []ShardSpec{{
			Machines: ids,
			Post: func(_ int, _ string, stdout []byte, err error) {
				if err == nil && len(stdout) > 0 {
					committed++
				}
			},
		}},
	}
	if err := coll.Install(eng, t0, t0.Add(400*period)); err != nil {
		t.Fatal(err)
	}
	defer coll.Finish()
	next := t0
	sweep := func() {
		next = next.Add(period)
		eng.RunUntil(next)
	}
	for i := 0; i < 20; i++ { // warm the batch pool and the arena
		sweep()
	}
	allocs := testing.AllocsPerRun(100, sweep)
	t.Logf("one-shard sweep of %d machines: %.0f allocs", machines, allocs)
	if allocs > 4 {
		t.Errorf("one-shard sweep allocates %.0f objects, want ≤ 4", allocs)
	}
	coll.Finish()
	if want := coll.Stats().Iterations * (machines - (machines+2)/3); committed != want {
		t.Errorf("committed %d reports, want %d", committed, want)
	}
}
