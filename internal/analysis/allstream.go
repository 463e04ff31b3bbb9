package analysis

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"winlab/internal/stats"
	"winlab/internal/trace"
	"winlab/internal/trace/stream"
)

// AllStream computes the same Results as All in a single pass over a
// TBv1 cursor, without ever materialising a Dataset: peak memory is a
// few run buffers plus O(machines + iterations + labs) accumulator
// state, independent of trace length. This is the out-of-core path for
// traces that do not fit in memory.
//
// Input contract: the stream must be machine-contiguous — all of a
// machine's samples consecutive, time-sorted within the machine — which
// is exactly what WriteBinary produces for a frozen Dataset. Non-contiguous
// input is detected and rejected rather than silently mis-paired.
//
// Equivalence to All (asserted by internal/validate's stream arms):
//
//   - opts.Workers ≤ 1: bit-exact. All feeds the same engine the frozen
//     dataset's machine spans in the order this pass reads them from
//     the file.
//   - opts.Workers > 1: machines are sharded deterministically across
//     workers (stream.Parallel) and per-shard accumulators are merged
//     in worker order. Counts, histograms and every integer artefact
//     remain exact; Welford-merged means and variances may differ from
//     the serial result in the last bits (documented epsilon).
func AllStream(c *stream.Cursor, opts Options) (*Results, error) {
	opts = opts.withDefaults()
	machines := c.Machines()
	iterations := c.Iterations()
	workers := max(opts.Workers, 1)
	shards := make([]*streamAcc, workers)
	for i := range shards {
		shards[i] = newStreamAcc(c.Start(), c.End(), c.Period(), machines, iterations, opts)
	}
	err := stream.Parallel(c, workers, func(w int, run *stream.Run) error {
		return shards[w].addRun(run.Machine, run.Samples)
	})
	if err != nil {
		return nil, err
	}
	return fold(shards).finalize(machines, iterations), nil
}

// machState is the per-machine carry state of the pass: the previous
// sample (interval pairing, uptime-ratio dedup, PowerCycles' last
// counters), the first sample's SMART counters, the open detected
// session, and the machine's catalogue entry, resolved once.
type machState struct {
	hasPrev bool
	prev    trace.Sample // last sample, copied out at the end of each run

	firstCycles int64 // PowerCycles window start: the first sample's
	firstPOH    int64 // SMART counters and uptime
	firstUptime time.Duration

	sessOpen bool
	sessBoot time.Time // boot time of the open session's first sample
	sessLen  time.Duration

	answered int               // distinct iterations answered (duplicate-deduped)
	heat     [HeatHours]uint32 // of those, per hour-of-week cell

	cat        catEntry
	catalogued bool // so it weighs into Figure 6
	capClass   *stats.Running
	cpuLab     *labAcc // catalogue lab, resolved on the first interval

	// Per-lab sample counts key on the lab the sample names, cached
	// here with its accumulator.
	sampleLabName string
	sampleLab     *labAcc
}

// catEntry is what the engine needs of one catalogued machine.
type catEntry struct {
	ram  int
	lab  string
	perf float64
}

// iterSum is one iteration's per-sample and per-interval sums: Figure 3's
// counts, Figure 6's perf-weighted idleness and the capacity totals.
type iterSum struct {
	on, free      int
	occ, freeIdle float64
	ramMB, diskGB float64
}

type labAcc struct {
	samples  int
	occupied int
	ram      stats.Running
	freeRAM  stats.Running
	freeDisk stats.Running
	cpu      stats.Running
}

// iterIndex maps an iteration number to its position among the distinct
// iteration numbers of the header's log, the index of the per-iteration
// sums. Only logged iterations are read at finalize, so a sample whose
// Iter is not in the log has no position and skips those sums; nothing a
// sample carries ever sizes an allocation.
type iterIndex struct {
	keys []int // distinct logged iteration numbers, ascending
	lo   int   // keys[0]
	pos  []int // iter-lo → position in keys or -1; nil for a sparse log
}

func newIterIndex(iterations []trace.Iteration) iterIndex {
	keys := make([]int, len(iterations))
	for i := range iterations {
		keys[i] = iterations[i].Iter
	}
	slices.Sort(keys)
	x := iterIndex{keys: slices.Compact(keys)}
	if len(x.keys) == 0 {
		return x
	}
	x.lo = x.keys[0]
	// A dense table only when it stays within a small multiple of the
	// log's own length (collector outages leave a few gaps); a sparser
	// log is searched instead.
	if span := uint64(x.keys[len(x.keys)-1]) - uint64(x.lo); span < 4*uint64(len(x.keys)) {
		x.pos = make([]int, span+1)
		for i := range x.pos {
			x.pos[i] = -1
		}
		for k, it := range x.keys {
			x.pos[it-x.lo] = k
		}
	}
	return x
}

// of returns iter's position, or -1 when the log does not contain it.
func (x *iterIndex) of(iter int) int {
	if x.pos != nil {
		if i := uint(iter - x.lo); i < uint(len(x.pos)) {
			return x.pos[i]
		}
		return -1
	}
	if k, ok := slices.BinarySearch(x.keys, iter); ok {
		return k
	}
	return -1
}

// streamAcc is the analysis engine: one shard's worth of single-pass
// accumulators behind every artefact of Results. It is fed machine runs
// (addRun) by All, AllStream and AllSegments; per-iteration and
// per-machine aggregates stay compact and are expanded to the artefact
// shapes in finalize.
type streamAcc struct {
	start, end time.Time
	threshold  time.Duration
	maxGap     time.Duration
	ageMax     int
	histCap    time.Duration

	mach map[string]*machState
	cur  string     // machine of the current run, for contiguity + flush
	curM *machState // its state

	cat       map[string]catEntry
	totalPerf float64
	perf      map[string]float64 // for the churn denominator (activePerf)

	// Table 2 (§4.2) and the reclassification counts.
	t2no, t2with, t2both table2Acc
	rawLogin             int
	reclassified         int

	// Figure 2: CPU idleness by session age.
	age []stats.Running

	// Figures 3 and 6 and the capacity totals, by iterIdx position.
	iterIdx iterIndex
	iters   []iterSum

	// §5.2.1 detected sessions.
	sessCount   int
	sessLengths stats.Running
	sessHist    *stats.Histogram
	uptimeAll   float64
	uptimeShort float64

	// Figure 5 weekly profiles.
	weekly WeeklyProfiles

	// Per-lab usage.
	labs map[string]*labAcc

	// Capacity (§6).
	capRAM   stats.Running
	capDisk  stats.Running
	capClass map[int]*stats.Running
}

// newStreamAcc builds an engine for a trace with the given header; opts
// must already be resolved (withDefaults, or a deliberate zero
// threshold).
func newStreamAcc(start, end time.Time, period time.Duration, machines []trace.MachineInfo, iterations []trace.Iteration, opts Options) *streamAcc {
	a := &streamAcc{
		start:     start,
		end:       end,
		threshold: opts.Threshold,
		maxGap:    2 * period,
		ageMax:    opts.SessionAgeHours,
		histCap:   opts.HistCap,
		mach:      make(map[string]*machState),
		cat:       make(map[string]catEntry, len(machines)),
		perf:      make(map[string]float64, len(machines)),
		age:       make([]stats.Running, opts.SessionAgeHours),
		iterIdx:   newIterIndex(iterations),
		sessHist:  stats.NewHistogram(0, opts.HistCap.Hours(), opts.HistBins),
		labs:      make(map[string]*labAcc),
		capClass:  make(map[int]*stats.Running),
	}
	a.iters = make([]iterSum, len(a.iterIdx.keys))
	for _, m := range machines {
		p := m.PerfIndex()
		if opts.UnweightedEquivalence {
			p = 1
		}
		a.cat[m.ID] = catEntry{ram: m.RAMMB, lab: m.Lab, perf: p}
		a.perf[m.ID] = p
		a.totalPerf += p
	}
	return a
}

// addRun folds one machine run into the accumulators. Runs of the same
// machine may arrive split (the cursor's RunLimit); a machine whose
// runs are *not* consecutive violates the contiguity contract — its
// intervals and sessions would be silently mis-paired — so that input
// is rejected.
func (a *streamAcc) addRun(id string, samples []trace.Sample) error {
	if len(samples) == 0 {
		return nil
	}
	if a.curM == nil || id != a.cur {
		if a.mach[id] != nil {
			return fmt.Errorf("analysis: stream not machine-contiguous: %q reappears after other machines; re-encode the trace from a frozen dataset", id)
		}
		a.closeSession(a.curM)
		a.cur, a.curM = id, a.newMachine(id, &samples[0])
	}
	m := a.curM
	var prev *trace.Sample
	if m.hasPrev {
		prev = &m.prev
	}
	for i := range samples {
		s := &samples[i]
		a.addSample(m, prev, s)
		prev = s
	}
	m.prev = *prev
	m.hasPrev = true
	return nil
}

func (a *streamAcc) newMachine(id string, first *trace.Sample) *machState {
	e, ok := a.cat[id]
	m := &machState{
		firstCycles: first.PowerCycles,
		firstPOH:    first.PowerOnHours,
		firstUptime: first.Uptime,
		cat:         e,
		catalogued:  ok,
	}
	m.capClass = a.capClass[e.ram]
	if m.capClass == nil {
		m.capClass = &stats.Running{}
		a.capClass[e.ram] = m.capClass
	}
	a.mach[id] = m
	return m
}

// finish flushes the trailing machine's open detected session. Call
// once, after the last run.
func (a *streamAcc) finish() { a.closeSession(a.curM) }

// addSample folds one sample; prev is the machine's previous sample, or
// nil for its first.
func (a *streamAcc) addSample(m *machState, prev, s *trace.Sample) {
	cl := Classify(s, a.threshold)
	occupied := cl.Occupied()
	slot := stats.WeekSlot(s.Time)
	k := a.iterIdx.of(s.Iter)

	// Interval pairing against the machine's previous sample: adjacent
	// same-boot samples at most 2×period apart.
	if prev != nil && trace.SameBoot(prev, s) {
		if gap := s.Time.Sub(prev.Time); a.maxGap <= 0 || gap <= a.maxGap {
			a.addInterval(m, trace.Interval{A: prev, B: s}, occupied, slot, k)
		}
	}

	// Detected sessions (§5.2.1): a session continues while the sample's
	// boot time matches the boot time of the session's *first* sample,
	// and its length is the last sample's uptime.
	if m.sessOpen && trace.SameBootTime(m.sessBoot, s.BootTime) {
		m.sessLen = s.Uptime
	} else {
		a.closeSession(m)
		m.sessOpen = true
		m.sessBoot = s.BootTime
		m.sessLen = s.Uptime
	}

	// Uptime ratios and the heatmap count distinct iterations answered:
	// duplicate samples within one iteration count once.
	if prev == nil || s.Iter != prev.Iter {
		m.answered++
		m.heat[slot/4]++
	}

	// Reclassification counts (Table 2's Reclass block).
	if s.HasSession() {
		a.rawLogin++
		if cl == Forgotten {
			a.reclassified++
		}
	}

	// Table 2 sample-level metrics.
	col := &a.t2no
	if occupied {
		col = &a.t2with
	}
	col.addSample(s)
	a.t2both.addSample(s)

	mem := float64(s.MemLoadPct)
	freeMB := float64(m.cat.ram) * (100 - mem) / 100

	// Figure 3 counts and the capacity totals, per iteration.
	if k >= 0 {
		it := &a.iters[k]
		it.on++
		if !occupied {
			it.free++
		}
		it.ramMB += freeMB
		it.diskGB += s.FreeDiskGB
	}

	// Figure 5 sample-level profiles.
	a.weekly.RAMLoadPct.Slots[slot].Add(mem)
	a.weekly.SwapLoad.Slots[slot].Add(float64(s.SwapLoadPct))

	// Per-lab usage, keyed by the lab the sample names.
	if m.sampleLab == nil || s.Lab != m.sampleLabName {
		m.sampleLabName, m.sampleLab = s.Lab, a.lab(s.Lab)
	}
	la := m.sampleLab
	la.samples++
	if occupied {
		la.occupied++
	}
	la.ram.Add(mem)
	if m.cat.ram > 0 {
		la.freeRAM.Add(freeMB)
	}
	la.freeDisk.Add(s.FreeDiskGB)

	// Capacity.
	a.capRAM.Add(freeMB)
	a.capDisk.Add(s.FreeDiskGB)
	m.capClass.Add(freeMB)
}

// addInterval folds the interval closing at iv.B, which addSample has
// already classified, slotted and indexed.
func (a *streamAcc) addInterval(m *machState, iv trace.Interval, occupied bool, slot, k int) {
	idle := iv.CPUIdlePct()
	sent := iv.SentBps()
	recv := iv.RecvBps()
	s := iv.B

	// Table 2 interval-level metrics, classified by the closing sample.
	col := &a.t2no
	if occupied {
		col = &a.t2with
	}
	col.addInterval(idle, sent, recv)
	a.t2both.addInterval(idle, sent, recv)

	// Figure 2: idleness by session age.
	if s.HasSession() {
		if h := int(s.SessionAge() / time.Hour); h >= 0 {
			if h >= a.ageMax {
				h = a.ageMax - 1
			}
			a.age[h].Add(idle)
		}
	}

	// Figure 5 interval-level profiles.
	a.weekly.CPUIdlePct.Slots[slot].Add(idle)
	a.weekly.SentBps.Slots[slot].Add(sent)
	a.weekly.RecvBps.Slots[slot].Add(recv)

	// Figure 6: perf-weighted idleness, split by raw session presence.
	if m.catalogued && k >= 0 {
		contrib := idle / 100 * m.cat.perf
		if s.HasSession() {
			a.iters[k].occ += contrib
		} else {
			a.iters[k].freeIdle += contrib
		}
	}

	// Per-lab CPU idleness, keyed by the catalogue lab.
	if m.cpuLab == nil {
		m.cpuLab = a.lab(m.cat.lab)
	}
	m.cpuLab.cpu.Add(idle)
}

func (a *streamAcc) lab(lb string) *labAcc {
	l := a.labs[lb]
	if l == nil {
		l = &labAcc{}
		a.labs[lb] = l
	}
	return l
}

// closeSession feeds a finished detected session into the §5.2.1
// aggregates. nil-safe (the first run has no previous machine).
func (a *streamAcc) closeSession(m *machState) {
	if m == nil || !m.sessOpen {
		return
	}
	m.sessOpen = false
	h := m.sessLen.Hours()
	a.sessCount++
	a.sessLengths.Add(h)
	a.sessHist.Add(h)
	a.uptimeAll += h
	if m.sessLen <= a.histCap {
		a.uptimeShort += h
	}
}

func mergeT2(a, b *table2Acc) {
	a.samples += b.samples
	a.cpuIdle = a.cpuIdle.Merge(b.cpuIdle)
	a.ram = a.ram.Merge(b.ram)
	a.swap = a.swap.Merge(b.swap)
	a.disk = a.disk.Merge(b.disk)
	a.sent = a.sent.Merge(b.sent)
	a.recv = a.recv.Merge(b.recv)
}

// fold finishes every shard and merges them, in order, into the first.
// Shards partition machines (the parallel scheduler routes every run of
// a machine to one worker; segments must hold whole machines), so the
// per-machine states are disjoint; everything else merges by Welford /
// histogram / integer addition. Merging in fixed order keeps the result
// deterministic for a given trace and shard count.
func fold(shards []*streamAcc) *streamAcc {
	a := shards[0]
	a.finish()
	for _, b := range shards[1:] {
		b.finish()
		for id, m := range b.mach {
			a.mach[id] = m
		}

		mergeT2(&a.t2no, &b.t2no)
		mergeT2(&a.t2with, &b.t2with)
		mergeT2(&a.t2both, &b.t2both)
		a.rawLogin += b.rawLogin
		a.reclassified += b.reclassified

		for i := range a.age {
			a.age[i] = a.age[i].Merge(b.age[i])
		}

		for k := range a.iters {
			x, y := &a.iters[k], &b.iters[k]
			x.on += y.on
			x.free += y.free
			x.occ += y.occ
			x.freeIdle += y.freeIdle
			x.ramMB += y.ramMB
			x.diskGB += y.diskGB
		}

		a.sessCount += b.sessCount
		a.sessLengths = a.sessLengths.Merge(b.sessLengths)
		a.sessHist.Merge(b.sessHist)
		a.uptimeAll += b.uptimeAll
		a.uptimeShort += b.uptimeShort

		a.weekly.CPUIdlePct.Merge(&b.weekly.CPUIdlePct)
		a.weekly.RAMLoadPct.Merge(&b.weekly.RAMLoadPct)
		a.weekly.SwapLoad.Merge(&b.weekly.SwapLoad)
		a.weekly.SentBps.Merge(&b.weekly.SentBps)
		a.weekly.RecvBps.Merge(&b.weekly.RecvBps)

		for lb, bl := range b.labs {
			al := a.lab(lb)
			al.samples += bl.samples
			al.occupied += bl.occupied
			al.ram = al.ram.Merge(bl.ram)
			al.freeRAM = al.freeRAM.Merge(bl.freeRAM)
			al.freeDisk = al.freeDisk.Merge(bl.freeDisk)
			al.cpu = al.cpu.Merge(bl.cpu)
		}

		a.capRAM = a.capRAM.Merge(b.capRAM)
		a.capDisk = a.capDisk.Merge(b.capDisk)
		for ram, r := range b.capClass {
			if ar := a.capClass[ram]; ar != nil {
				*ar = ar.Merge(*r)
			} else {
				a.capClass[ram] = r
			}
		}
	}
	return a
}

// finalize expands the compact accumulator state into Results,
// replaying each artefact's finalisation order exactly (iteration-log
// order for per-iteration series, catalogue order for uptime ratios and
// heatmap rows, sorted-machine order for the SMART statistics, sorted
// lab names).
func (a *streamAcc) finalize(machines []trace.MachineInfo, iterations []trace.Iteration) *Results {
	res := &Results{}

	attempts := 0
	for _, it := range iterations {
		attempts += it.Attempted
	}
	// sums returns a logged iteration's sums.
	sums := func(it *trace.Iteration) *iterSum { return &a.iters[a.iterIdx.of(it.Iter)] }

	// Table 2.
	res.Table2 = Table2{
		Threshold: a.threshold,
		Reclass: ReclassifyStats{
			Threshold:       a.threshold,
			RawLoginSamples: a.rawLogin,
			Reclassified:    a.reclassified,
		},
		NoLogin:   a.t2no.column(attempts),
		WithLogin: a.t2with.column(attempts),
		Both:      a.t2both.column(attempts),
	}

	// Figure 2.
	res.SessionAge = SessionAgeProfile{Buckets: make([]AgeBucket, a.ageMax)}
	for h := range a.age {
		res.SessionAge.Buckets[h] = AgeBucket{
			Hour:       h,
			Samples:    a.age[h].N(),
			CPUIdlePct: a.age[h].Mean(),
		}
	}

	// Figure 3.
	var on, free stats.Running
	for i := range iterations {
		it := &iterations[i]
		c := sums(it)
		res.Availability.Points = append(res.Availability.Points, AvailabilityPoint{
			Iter: it.Iter, Time: it.Start, PoweredOn: c.on, UserFree: c.free,
		})
		on.Add(float64(c.on))
		free.Add(float64(c.free))
	}
	res.Availability.AvgPoweredOn = on.Mean()
	res.Availability.AvgUserFree = free.Mean()

	// Figure 4 (left): uptime ratios, catalogue order then ratio-sorted,
	// over each machine's (lifetime-bounded) attempts.
	if len(iterations) > 0 {
		ups := make([]MachineUptime, 0, len(machines))
		for i := range machines {
			answered := 0
			if st := a.mach[machines[i].ID]; st != nil {
				answered = st.answered
			}
			attempts := machineAttempts(&machines[i], iterations)
			ratio := 0.0
			if attempts > 0 {
				ratio = float64(answered) / float64(attempts)
			}
			ups = append(ups, MachineUptime{
				Machine: machines[i].ID,
				Ratio:   ratio,
				Nines:   stats.Nines(ratio),
			})
		}
		sort.Slice(ups, func(i, j int) bool { return ups[i].Ratio > ups[j].Ratio })
		res.Uptimes = ups
	}

	// §5.2.1 sessions.
	res.Sessions = SessionStats{
		Count:   a.sessCount,
		Mean:    time.Duration(a.sessLengths.Mean() * float64(time.Hour)),
		StdDev:  time.Duration(a.sessLengths.StdDev() * float64(time.Hour)),
		Hist:    a.sessHist,
		HistCap: a.histCap,
	}
	if a.sessCount > 0 {
		res.Sessions.ShortFraction = a.sessHist.InRangeFraction()
	}
	if a.uptimeAll > 0 {
		res.Sessions.ShortUptimeFraction = a.uptimeShort / a.uptimeAll
	}

	// §5.2.2 power cycles, in sorted machine order.
	ids := make([]string, 0, len(a.mach))
	for id := range a.mach {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var pc PowerCycleStats
	var perMach, perCycle, lifetime stats.Running
	for _, id := range ids {
		m := a.mach[id]
		last := &m.prev
		cycles := last.PowerCycles - m.firstCycles + 1
		if cycles < 1 {
			cycles = 1
		}
		pc.TotalCycles += cycles
		perMach.Add(float64(cycles))
		// Powered-on hours accumulated during the window. The first
		// sample's uptime predates the counter difference, so add it back
		// (in whole hours the SMART attribute would have counted).
		hours := float64(last.PowerOnHours-m.firstPOH) + m.firstUptime.Hours()
		if hours > 0 {
			perCycle.Add(hours / float64(cycles))
		}
		if last.PowerCycles > 0 {
			lifetime.Add(float64(last.PowerOnHours) / float64(last.PowerCycles))
		}
	}
	pc.AvgPerMachine = perMach.Mean()
	pc.SDPerMachine = perMach.StdDev()
	if days := a.end.Sub(a.start).Hours() / 24; days > 0 {
		pc.CyclesPerDay = perMach.Mean() / days
	}
	pc.DetectedSessions = a.sessCount
	if pc.DetectedSessions > 0 {
		pc.UndetectedRatio = float64(pc.TotalCycles)/float64(pc.DetectedSessions) - 1
	}
	pc.UptimePerCycle = time.Duration(perCycle.Mean() * float64(time.Hour))
	pc.UptimePerCycleSD = time.Duration(perCycle.StdDev() * float64(time.Hour))
	pc.LifetimePerCycle = time.Duration(lifetime.Mean() * float64(time.Hour))
	pc.LifetimePerCycleSD = time.Duration(lifetime.StdDev() * float64(time.Hour))
	res.PowerCycles = pc

	// Figure 5.
	res.Weekly = &a.weekly

	// Figure 6, iteration-log order; zero result when no machine has
	// index metadata. On fleet-churn traces the denominator is the
	// per-iteration active fleet.
	if a.totalPerf != 0 {
		partial := false
		for i := range machines {
			if machines[i].PartialLifetime() {
				partial = true
				break
			}
		}
		var occ, freeEq stats.Running
		for i := range iterations {
			it := &iterations[i]
			es := sums(it)
			denom := a.totalPerf
			if partial {
				denom = activePerf(machines, a.perf, it.Iter)
				if denom == 0 {
					continue // no fleet at this instant; nothing to compare against
				}
			}
			o := es.occ / denom
			f := es.freeIdle / denom
			occ.Add(o)
			freeEq.Add(f)
			res.Equivalence.WeeklyOccupied.Add(it.Start, o)
			res.Equivalence.WeeklyFree.Add(it.Start, f)
			res.Equivalence.Weekly.Add(it.Start, o+f)
		}
		res.Equivalence.OccupiedRatio = occ.Mean()
		res.Equivalence.FreeRatio = freeEq.Mean()
		res.Equivalence.TotalRatio = res.Equivalence.OccupiedRatio + res.Equivalence.FreeRatio
	}

	// Labs: catalogue labs always appear (even with no samples), machine
	// counts come from the catalogue, sorted by name. Lab attempts are
	// lifetime-bounded per machine: full-lifetime machines are attempted
	// every iteration, partial-lifetime machines only while members.
	labMachines := make(map[string]map[string]bool)
	labAttempts := make(map[string]int)
	for i := range machines {
		m := &machines[i]
		if labMachines[m.Lab] == nil {
			labMachines[m.Lab] = make(map[string]bool)
			a.lab(m.Lab) // ensure the lab appears in the output
		}
		labMachines[m.Lab][m.ID] = true
		labAttempts[m.Lab] += machineAttempts(m, iterations)
	}
	labs := make([]LabUsage, 0, len(a.labs))
	for lb, l := range a.labs {
		u := LabUsage{
			Lab:                  lb,
			Machines:             len(labMachines[lb]),
			CPUIdlePct:           l.cpu.Mean(),
			RAMLoadPct:           l.ram.Mean(),
			FreeRAMMBPerMachine:  l.freeRAM.Mean(),
			FreeDiskGBPerMachine: l.freeDisk.Mean(),
		}
		if att := labAttempts[lb]; att > 0 {
			u.UptimePct = 100 * float64(l.samples) / float64(att)
			u.OccupiedPct = 100 * float64(l.occupied) / float64(att)
		}
		labs = append(labs, u)
	}
	sort.Slice(labs, func(i, j int) bool { return labs[i].Lab < labs[j].Lab })
	res.Labs = labs

	// Capacity, iteration-log order; an iteration nobody answered adds
	// zeros.
	rep := CapacityReport{
		AvgFreeRAMMBPerMachine:  a.capRAM.Mean(),
		FreeRAMByClass:          map[int]float64{},
		AvgFreeDiskGBPerMachine: a.capDisk.Mean(),
	}
	var iterRAM, iterDisk, iterOn stats.Running
	for i := range iterations {
		c := sums(&iterations[i])
		iterRAM.Add(c.ramMB)
		iterDisk.Add(c.diskGB)
		iterOn.Add(float64(c.on))
	}
	rep.FleetFreeRAMGB = iterRAM.Mean() / 1024
	rep.FleetFreeDiskTB = iterDisk.Mean() / 1024
	rep.AvgPoweredMachines = iterOn.Mean()
	for ram, acc := range a.capClass {
		rep.FreeRAMByClass[ram] = acc.Mean()
	}
	res.Capacity = rep

	// Hour-of-week heatmaps, machines in catalogue order.
	cells := make([]int, HeatHours)
	for _, it := range iterations {
		cells[heatCell(it.Start)]++
	}
	hd := &HeatmapData{
		IterationsPerCell: cells,
		FreeMachines:      FreeMachineHeat(res.Availability),
		Machines:          make([]MachineHeat, 0, len(machines)),
	}
	for _, mi := range machines {
		up := make([]float64, HeatHours)
		if st := a.mach[mi.ID]; st != nil {
			for c := range up {
				if cells[c] > 0 {
					up[c] = float64(st.heat[c]) / float64(cells[c])
				}
			}
		}
		hd.Machines = append(hd.Machines, MachineHeat{Machine: mi.ID, Lab: mi.Lab, Uptime: up})
	}
	res.Heatmap = hd

	return res
}
