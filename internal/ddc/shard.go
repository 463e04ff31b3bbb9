package ddc

import (
	"context"
	"fmt"
	"sync"
	"time"

	"winlab/internal/sim"
	"winlab/internal/telemetry"
	"winlab/internal/trace"
)

// Collection on the simulated clock (DESIGN.md §8.3 has the long form).
// One coordinator owns the probe clock: a single serial event chain on
// the engine visits every machine at its exact simulated instant, in
// fleet order, drawing one latency per probe. The machines are
// partitioned across N shards, each with its own goroutine and sink. One
// shard is the paper's serial coordinator; N shards are the same loop
// with the downstream work fanned out, each able to write its own TBv1
// segment, which bounds per-shard memory to 1/N of the fleet's samples.
//
// The chain takes a probe's outcome in exactly two shapes:
//
//   - an AtExecutor (a pure source, PureDirect) only decides reachability
//     on the chain and returns a render job; snapshot, render, parse and
//     commit all run on the shard goroutine;
//   - any other Executor is executed synchronously on the engine
//     goroutine at the probe's scheduled instant into the iteration
//     batch's report arena, leaving parse and commit to the shard
//     goroutine. The simulated fleet needs this (machine.Machine
//     mutates on Snapshot), and it is why injection composes with
//     sharding: FaultExecutor decides on the chain.
//
// Identity argument (internal/validate's shard arms, the golden digests
// in internal/experiment): snapshot instants, RNG draw order and
// accounting do not depend on the partition, and each shard's sink sees
// its machines in fleet order at the same iteration boundaries, so the
// merged dataset is sample-identical for every shard count.

// PartitionN splits ids into at most n contiguous, non-empty parts whose
// concatenation is ids — an even split, with the first len(ids)%n parts
// one element longer. n is clamped to [1, len(ids)].
func PartitionN(ids []string, n int) [][]string {
	if len(ids) == 0 {
		return nil
	}
	if n < 1 {
		n = 1
	}
	if n > len(ids) {
		n = len(ids)
	}
	out := make([][]string, 0, n)
	base, extra := len(ids)/n, len(ids)%n
	at := 0
	for i := 0; i < n; i++ {
		size := base
		if i < extra {
			size++
		}
		out = append(out, ids[at:at+size])
		at += size
	}
	return out
}

// PartitionLabAligned splits a machine catalogue into at most n
// contiguous, non-empty parts without splitting any contiguous run of
// one lab across parts. Lab alignment is what keeps the per-shard
// anomaly-detector view coherent: detectors aggregate per lab, and with
// every lab wholly inside one shard, that shard's sink sees the lab's
// samples in exactly the serial order (see experiment's sharded path).
// Parts are balanced greedily toward machines/n, one lab run at a time;
// the concatenation of the parts is the input slice.
func PartitionLabAligned(infos []trace.MachineInfo, n int) [][]trace.MachineInfo {
	if len(infos) == 0 {
		return nil
	}
	if n < 1 {
		n = 1
	}
	// Contiguous lab runs — the indivisible units.
	type group struct{ start, end int }
	var groups []group
	for i := 0; i < len(infos); {
		j := i + 1
		for j < len(infos) && infos[j].Lab == infos[i].Lab {
			j++
		}
		groups = append(groups, group{i, j})
		i = j
	}
	if n > len(groups) {
		n = len(groups)
	}
	out := make([][]trace.MachineInfo, 0, n)
	g, remaining := 0, len(infos)
	for part := 0; part < n && g < len(groups); part++ {
		partsLeft := n - part
		fair := (remaining + partsLeft - 1) / partsLeft
		start := groups[g].start
		size := 0
		for g < len(groups) {
			gs := groups[g].end - groups[g].start
			if size > 0 {
				// Leave at least one group for each later part, and only
				// keep taking while the overshoot past the fair share is no
				// worse than the undershoot of stopping here.
				if len(groups)-g <= partsLeft-1 || size >= fair || size+gs-fair > fair-size {
					break
				}
			}
			size += gs
			g++
		}
		out = append(out, infos[start:start+size])
		remaining -= size
	}
	return out
}

// ShardSpec is one shard's slice of the fleet and its private downstream
// hooks. Post and OnIteration are invoked on the shard's own goroutine —
// serially within the shard, concurrently with other shards — so a
// per-shard DatasetSink needs no extra locking, but hooks shared across
// shards must synchronise themselves.
type ShardSpec struct {
	Machines []string

	// Post receives every probe outcome of this shard's machines, in
	// machine order within each iteration (typically a per-shard
	// DatasetSink.Post). The stdout lifetime contract is PostCollect's:
	// the buffer is reused for the next report.
	Post PostCollect

	// OnIteration, when set, fires after the shard finishes committing an
	// iteration, with shard-local Attempted/Responded counts.
	OnIteration IterationFunc
}

// shardBatch carries one iteration's probe outcomes for one shard from
// the engine chain to the shard goroutine. Slots are appended in machine
// order. Under an AtExecutor a slot is a render job; otherwise the
// reports were already executed on the chain and lie back to back in
// arena, slot i ending at ends[i].
type shardBatch struct {
	iter       int
	start, end time.Time
	responded  int // within this shard
	errs       []error
	jobs       []AppendProbeJob
	arena      *reportBuf
	ends       []int
	wg         *sync.WaitGroup // global iteration barrier; nil when unused
}

// report returns slot i's report bytes, rendering the slot's job into
// scratch when there is one. The bytes are valid until the next call.
func (b *shardBatch) report(i int, scratch *reportBuf) []byte {
	switch {
	case b.errs[i] != nil:
		return nil
	case b.arena == nil:
		out := b.jobs[i](scratch.b[:0])
		scratch.b = out[:0]
		return out
	case i == 0:
		return b.arena.b[:b.ends[0]]
	default:
		return b.arena.b[b.ends[i-1]:b.ends[i]]
	}
}

// queueDepth bounds how many iterations a shard may lag behind the
// scheduler before the engine chain blocks on it (backpressure).
// Irrelevant when ShardedCollector.OnIteration is set, which already
// barriers every iteration.
const queueDepth = 2

// ShardedCollector runs the collection loop on a discrete-event engine
// with the fleet partitioned across shards (architecture and identity
// argument at the top of this file). Any Executor works; an AtExecutor
// additionally moves snapshot and render off the scheduling chain.
type ShardedCollector struct {
	// Cfg supplies Period, latencies and outages; Cfg.Machines is
	// ignored — the fleet is the concatenation of the shard machine
	// lists, in shard order.
	Cfg    Config
	Exec   Executor
	Shards []ShardSpec

	// OnIteration, when set, fires after *all* shards have committed an
	// iteration, with fleet-wide counts — the barrier serialises
	// iterations across shards, which per-shard hooks deliberately
	// don't. Runs on the engine goroutine.
	OnIteration IterationFunc

	// Telemetry mirrors the run into a metrics registry, fleet-wide, and
	// records one span per probe. Latencies are simulated time (the
	// modelled probe latency), not wall time — the iteration duration
	// histogram reports the sweep length the paper's sequential
	// coordinator would have seen. Per-shard numbers live in ShardStats.
	Telemetry *telemetry.Registry

	stats      Stats
	shardStats []Stats
	tel        collectorTelemetry

	machines []string   // concatenation of shard machine lists
	shardOf  []int      // global machine index -> shard
	at       AtExecutor // non-nil: outcomes are render jobs, not arena reports

	chans []chan *shardBatch
	done  sync.WaitGroup
	pool  sync.Pool
}

// Stats returns the fleet-wide run statistics, whatever the shard count.
// Call after the engine run finishes.
func (c *ShardedCollector) Stats() Stats { return c.stats }

// ShardStats returns per-shard statistics. Attempts/Samples are
// shard-local; Iterations/Skipped are coordinator-level (every shard
// participates in every iteration) and repeat the fleet-wide values.
// SumShardStats folds them back into Stats().
func (c *ShardedCollector) ShardStats() []Stats {
	out := make([]Stats, len(c.shardStats))
	for i, s := range c.shardStats {
		s.Iterations = c.stats.Iterations
		s.Skipped = c.stats.Skipped
		out[i] = s
	}
	return out
}

// SumShardStats aggregates per-shard statistics into the fleet-wide
// view: additive counters sum, coordinator-level counters (Iterations,
// Skipped) are common to all shards and taken from the first, and
// per-machine health maps union (shards partition the machines). The
// map stays nil when no shard has one, so the validate suite's
// SumShardStats(ShardStats()) == Stats() holds.
func SumShardStats(shards []Stats) Stats {
	var out Stats
	if len(shards) == 0 {
		return out
	}
	out.Iterations = shards[0].Iterations
	out.Skipped = shards[0].Skipped
	for _, s := range shards {
		out.Attempts += s.Attempts
		out.Samples += s.Samples
		out.Retries += s.Retries
		out.BreakerSkipped += s.BreakerSkipped
		out.BreakerOpens += s.BreakerOpens
		for id, h := range s.Machines {
			if out.Machines == nil {
				out.Machines = make(map[string]MachineHealth)
			}
			out.Machines[id] = h
		}
	}
	return out
}

// Install validates the configuration, starts the shard goroutines and
// schedules the collection loop on the engine from start to end. The
// caller must call Finish after the engine run to drain and join the
// shards before reading sinks or stats.
func (c *ShardedCollector) Install(eng *sim.Engine, start, end time.Time) error {
	if len(c.Shards) == 0 {
		return fmt.Errorf("ddc: sharded collector with no shards")
	}
	total := 0
	for _, sh := range c.Shards {
		total += len(sh.Machines)
	}
	c.machines = make([]string, 0, total)
	c.shardOf = make([]int, 0, total)
	seen := make(map[string]int, total)
	for s, sh := range c.Shards {
		for _, id := range sh.Machines {
			if prev, dup := seen[id]; dup {
				return fmt.Errorf("ddc: machine %s assigned to shards %d and %d (shards must partition the fleet)", id, prev, s)
			}
			seen[id] = s
			c.machines = append(c.machines, id)
			c.shardOf = append(c.shardOf, s)
		}
	}
	cfg := c.Cfg
	cfg.Machines = c.machines
	if err := cfg.Validate(); err != nil {
		return err
	}
	c.at, _ = c.Exec.(AtExecutor)

	c.tel = newCollectorTelemetry(c.Telemetry)
	c.shardStats = make([]Stats, len(c.Shards))

	c.chans = make([]chan *shardBatch, len(c.Shards))
	for s := range c.Shards {
		ch := make(chan *shardBatch, queueDepth)
		c.chans[s] = ch
		c.done.Add(1)
		go c.shardWorker(s, ch)
	}

	iter := 0
	for at := start; at.Before(end); at = at.Add(c.Cfg.Period) {
		at := at
		thisIter := iter
		iter++
		if c.Cfg.inOutage(at) {
			c.stats.Skipped++
			c.tel.iterationsSkipped.Inc()
			continue
		}
		eng.At(at, "ddc-iteration", func(e *sim.Engine) {
			c.stats.Iterations++
			c.tel.iterations.Inc()
			sw := &sweep{c: c, iter: thisIter, start: at, batches: make([]*shardBatch, len(c.Shards))}
			for s := range sw.batches {
				sw.batches[s] = c.newBatch(thisIter, at)
			}
			sw.next = sim.Event{Name: "ddc-probe", Fn: sw.step}
			sw.step(e)
		})
	}
	return nil
}

// Finish drains the shard queues and joins the shard goroutines. Safe to
// call more than once. Until Finish returns, per-shard sinks may still
// be receiving commits.
func (c *ShardedCollector) Finish() {
	if c.chans == nil {
		return
	}
	for _, ch := range c.chans {
		close(ch)
	}
	c.chans = nil
	c.done.Wait()
}

// sweep is one iteration of the serial scheduling chain: one event per
// probe, each delayed by the previous probe's latency. The state lives
// here rather than in per-probe closures, and the chain re-arms the one
// event it owns, so it allocates nothing per probe — and, the next probe
// nearly always being the engine's earliest event, never sifts a heap.
type sweep struct {
	c       *ShardedCollector
	iter    int
	start   time.Time
	idx     int // next machine, in fleet order
	batches []*shardBatch
	next    sim.Event // the probe event; Fn is sw.step, bound once
}

// step probes machine idx at the engine's current instant — the probe's
// scheduled instant — books it, and schedules the next probe after this
// one's latency. Past the last machine it dispatches the batches.
func (sw *sweep) step(e *sim.Engine) {
	c := sw.c
	if sw.idx >= len(c.machines) {
		c.dispatch(e, sw)
		return
	}
	id := c.machines[sw.idx]
	s := c.shardOf[sw.idx]
	sw.idx++
	b := sw.batches[s]
	err := c.probe(b, id, e.Now())
	b.errs = append(b.errs, err)
	ss := &c.shardStats[s]
	ss.Attempts++
	if err == nil {
		b.responded++
		ss.Samples++
	}
	e.Reschedule(&sw.next, c.account(id, sw.iter, err))
}

// probe takes one probe's outcome into the batch in the executor's
// shape: a render job, or the report itself appended to the arena.
func (c *ShardedCollector) probe(b *shardBatch, id string, now time.Time) error {
	if c.at != nil {
		job, err := c.at.BeginAppendAt(id, now)
		b.jobs = append(b.jobs, job)
		return err
	}
	out, err := c.Exec.Exec(context.Background(), b.arena.b, id)
	if err == nil {
		b.arena.b = out
	}
	b.ends = append(b.ends, len(b.arena.b))
	return err
}

// account books one probe attempt into the run stats and telemetry at
// the probe's scheduled instant and returns the latency the chain must
// charge for it.
func (c *ShardedCollector) account(id string, iter int, err error) time.Duration {
	c.stats.Attempts++
	c.tel.probes.Inc()
	var lat time.Duration
	outcome := telemetry.OutcomeOK
	if err != nil {
		lat, outcome = c.Cfg.latFail(), telemetry.OutcomeError
		c.tel.failures.Inc()
	} else {
		lat = c.Cfg.latOK()
		c.stats.Samples++
		c.tel.samples.Inc()
	}
	c.tel.probeDuration.Observe(lat)
	c.tel.span(id, iter, 1, lat, outcome, err)
	return lat
}

// dispatch hands the iteration's batches to the shard goroutines. With a
// global OnIteration hook the engine chain waits for every shard to
// commit (the fleet-wide barrier); otherwise shards may pipeline up to
// queueDepth iterations behind the scheduler.
func (c *ShardedCollector) dispatch(e *sim.Engine, sw *sweep) {
	end := e.Now()
	c.tel.iterationDuration.Observe(end.Sub(sw.start))
	responded := 0
	for _, b := range sw.batches {
		responded += b.responded
	}
	var wg *sync.WaitGroup
	if c.OnIteration != nil {
		wg = &sync.WaitGroup{}
		wg.Add(len(sw.batches))
	}
	for s, b := range sw.batches {
		b.end = end
		b.wg = wg
		c.chans[s] <- b
	}
	if wg != nil {
		wg.Wait()
		c.OnIteration(IterationInfo{
			Iter: sw.iter, Start: sw.start, End: end,
			Attempted: len(c.machines), Responded: responded,
			Probes: len(c.machines),
		})
	}
}

// shardWorker is one shard's goroutine: hand each report to the shard's
// Post in machine order, then fire the shard's OnIteration — the
// downstream half of the paper's coordinator loop, shard-locally.
func (c *ShardedCollector) shardWorker(s int, ch chan *shardBatch) {
	defer c.done.Done()
	sh := &c.Shards[s]
	scratch := getReportBuf()
	defer putReportBuf(scratch)
	for b := range ch {
		if sh.Post != nil {
			for i, id := range sh.Machines {
				sh.Post(b.iter, id, b.report(i, scratch), b.errs[i])
			}
		}
		if sh.OnIteration != nil {
			sh.OnIteration(IterationInfo{
				Iter: b.iter, Start: b.start, End: b.end,
				Attempted: len(sh.Machines), Responded: b.responded,
				Probes: len(sh.Machines),
			})
		}
		if b.wg != nil {
			b.wg.Done()
		}
		c.putBatch(b)
	}
}

// newBatch rents an empty batch from the pool; its slot slices keep the
// capacity earlier iterations grew.
func (c *ShardedCollector) newBatch(iter int, start time.Time) *shardBatch {
	b, _ := c.pool.Get().(*shardBatch)
	if b == nil {
		b = &shardBatch{}
	}
	if c.at == nil {
		b.arena = getReportBuf()
	}
	b.iter, b.start, b.end = iter, start, time.Time{}
	b.responded, b.wg = 0, nil
	return b
}

// putBatch recycles a committed batch: the arena goes back to the report
// pool (poisoned under PoisonBuffers — reports die with their batch).
func (c *ShardedCollector) putBatch(b *shardBatch) {
	if b.arena != nil {
		putReportBuf(b.arena)
		b.arena = nil
	}
	clear(b.errs)
	clear(b.jobs)
	b.errs, b.jobs, b.ends = b.errs[:0], b.jobs[:0], b.ends[:0]
	c.pool.Put(b)
}
