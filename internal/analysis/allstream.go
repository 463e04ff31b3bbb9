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
// With opts.Workers > 1, machines are sharded across workers
// (stream.Parallel) and the per-shard accumulators merged. Every
// accumulator is exact and order-free (stats.Sum, stats.Running), so
// the Results are bit-identical to All's for every worker count
// (asserted by internal/validate's stream arms).
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
	capClass   *stats.Sum
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
	occ, freeIdle stats.Sum
	ramMB, diskGB stats.Sum
}

func (it *iterSum) merge(o *iterSum) {
	it.on += o.on
	it.free += o.free
	it.occ = it.occ.Merge(o.occ)
	it.freeIdle = it.freeIdle.Merge(o.freeIdle)
	it.ramMB = it.ramMB.Merge(o.ramMB)
	it.diskGB = it.diskGB.Merge(o.diskGB)
}

type labAcc struct {
	samples  int
	occupied int
	ram      stats.Sum
	freeRAM  stats.Sum
	freeDisk stats.Sum
	cpu      stats.Sum
}

func (l *labAcc) merge(o *labAcc) {
	l.samples += o.samples
	l.occupied += o.occupied
	l.ram = l.ram.Merge(o.ram)
	l.freeRAM = l.freeRAM.Merge(o.freeRAM)
	l.freeDisk = l.freeDisk.Merge(o.freeDisk)
	l.cpu = l.cpu.Merge(o.cpu)
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
	var x iterIndex
	x.push(slices.Compact(keys))
	return x
}

// push appends ascending keys, all above the last key. A dense table is
// kept only while it stays within a small multiple of the log's own
// length (collector outages leave a few gaps); a sparser log is searched
// instead. Either way only logged iterations ever size it.
func (x *iterIndex) push(keys []int) {
	if len(keys) == 0 {
		return
	}
	first := len(x.keys)
	x.keys = append(x.keys, keys...)
	x.lo = x.keys[0]
	span := uint64(x.keys[len(x.keys)-1]) - uint64(x.lo)
	if span >= 4*uint64(len(x.keys)) {
		x.pos = nil
		return
	}
	if x.pos == nil { // dense from here on: build the table whole
		x.pos, first = make([]int, 0, span+1), 0
	}
	for uint64(len(x.pos)) <= span {
		x.pos = append(x.pos, -1)
	}
	for k := first; k < len(x.keys); k++ {
		x.pos[x.keys[k]-x.lo] = k
	}
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

// extend indexes the iteration numbers of newly logged records and
// returns how many were new. Positions already handed out never move,
// which needs an ascending log: a record numbered below the last key and
// not already indexed would shift them, so extend then reports false and
// changes nothing.
func (x *iterIndex) extend(iterations []trace.Iteration) (added int, ok bool) {
	var keys []int
	last, have := 0, len(x.keys) > 0
	if have {
		last = x.keys[len(x.keys)-1]
	}
	for i := range iterations {
		switch it := iterations[i].Iter; {
		case !have || it > last:
			keys = append(keys, it)
			last, have = it, true
		case it < last && x.of(it) < 0:
			return 0, false
		}
	}
	x.push(keys)
	return len(keys), true
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
	totalPerf stats.Sum
	perf      map[string]float64 // for the churn denominator (activePerf)

	// Table 2 (§4.2) and the reclassification counts. The Both column
	// is their union, merged at finalize.
	t2no, t2with table2Acc
	rawLogin     int
	reclassified int

	// Figure 2: CPU idleness by session age.
	age []stats.Sum

	// Figures 3 and 6 and the capacity totals, by iterIdx position.
	iterIdx iterIndex
	iters   []iterSum

	// §5.2.1 detected sessions, closed ones only (finalize closes the
	// open ones on a copy).
	sess sessAcc

	// Figure 5 weekly profiles.
	weekly WeeklyProfiles

	// Per-lab usage.
	labs map[string]*labAcc

	// Capacity (§6), per RAM class; the fleet-wide free RAM and disk are
	// the unions of the classes and of the labs' freeDisk.
	capClass map[int]*stats.Sum
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
		age:       make([]stats.Sum, opts.SessionAgeHours),
		iterIdx:   newIterIndex(iterations),
		sess:      sessAcc{hist: stats.NewHistogram(0, opts.HistCap.Hours(), opts.HistBins)},
		labs:      make(map[string]*labAcc),
		capClass:  make(map[int]*stats.Sum),
	}
	a.iters = make([]iterSum, len(a.iterIdx.keys))
	for _, m := range machines {
		p := m.PerfIndex()
		if opts.UnweightedEquivalence {
			p = 1
		}
		a.cat[m.ID] = catEntry{ram: m.RAMMB, lab: m.Lab, perf: p}
		a.perf[m.ID] = p
		a.totalPerf.Add(p)
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
		m.capClass = &stats.Sum{}
		a.capClass[e.ram] = m.capClass
	}
	a.mach[id] = m
	return m
}

// finish flushes the trailing machine's open detected session. Call
// once, after the last run.
func (a *streamAcc) finish() { a.closeSession(a.curM) }

// addSample folds one sample; prev is the machine's previous sample, or
// nil for its first. It returns the sample's iteration position, -1 when
// the iteration log does not contain its Iter.
func (a *streamAcc) addSample(m *machState, prev, s *trace.Sample) (k int) {
	age := s.SessionAge()
	cl := classifyAge(s, age, a.threshold)
	occupied := cl.Occupied()
	slot := stats.WeekSlot(s.Time)
	k = a.iterIdx.of(s.Iter)

	// Interval pairing against the machine's previous sample: adjacent
	// same-boot samples at most 2×period apart.
	if prev != nil && trace.SameBoot(prev, s) {
		if dt := trace.TimeSub(s.Time, prev.Time); a.maxGap <= 0 || dt <= a.maxGap {
			a.addInterval(m, prev, s, dt, age, occupied, slot, k)
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

	mem := float64(s.MemLoadPct)
	freeMB := float64(m.cat.ram) * (100 - mem) / 100

	// Figure 3 counts and the capacity totals, per iteration.
	if k >= 0 {
		it := &a.iters[k]
		it.on++
		if !occupied {
			it.free++
		}
		it.ramMB.Add(freeMB)
		it.diskGB.Add(s.FreeDiskGB)
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
	m.capClass.Add(freeMB)
	return k
}

// addInterval folds the interval from prev to s, of length dt, which
// addSample has already classified, slotted and indexed; age is s's
// session age. The formulas are trace.Interval's, fed the one dt.
func (a *streamAcc) addInterval(m *machState, prev, s *trace.Sample, dt, age time.Duration, occupied bool, slot, k int) {
	idle := trace.IdlePct(prev.CPUIdle, s.CPUIdle, dt)
	sent := trace.CounterBps(prev.SentBytes, s.SentBytes, dt)
	recv := trace.CounterBps(prev.RecvBytes, s.RecvBytes, dt)

	// Table 2 interval-level metrics, classified by the closing sample.
	col := &a.t2no
	if occupied {
		col = &a.t2with
	}
	col.addInterval(idle, sent, recv)

	// Figure 2: idleness by session age.
	if s.HasSession() {
		if h := int(age / time.Hour); h >= 0 {
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
			a.iters[k].occ.Add(contrib)
		} else {
			a.iters[k].freeIdle.Add(contrib)
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
	a.sess.add(m.sessLen, a.histCap)
}

// sessAcc is the §5.2.1 detected-session aggregate.
type sessAcc struct {
	count       int
	lengths     stats.Running
	hist        *stats.Histogram
	uptimeAll   stats.Sum
	uptimeShort stats.Sum
}

// add records one finished session of length l.
func (s *sessAcc) add(l, histCap time.Duration) {
	h := l.Hours()
	s.count++
	s.lengths.Add(h)
	s.hist.Add(h)
	s.uptimeAll.Add(h)
	if l <= histCap {
		s.uptimeShort.Add(h)
	}
}

// fold finishes every shard and merges them into the first. Shards
// partition machines (the parallel scheduler routes every run of a
// machine to one worker; segments must hold whole machines), so the
// per-machine states are disjoint; everything else merges by integer
// addition, exact and order-free, so any partition of the machines
// gives the same engine state.
func fold(shards []*streamAcc) *streamAcc {
	a := shards[0]
	a.finish()
	for _, b := range shards[1:] {
		b.finish()
		for id, m := range b.mach {
			a.mach[id] = m
		}

		a.t2no.merge(&b.t2no)
		a.t2with.merge(&b.t2with)
		a.rawLogin += b.rawLogin
		a.reclassified += b.reclassified

		for i := range a.age {
			a.age[i] = a.age[i].Merge(b.age[i])
		}

		for k := range a.iters {
			a.iters[k].merge(&b.iters[k])
		}

		a.sess.count += b.sess.count
		a.sess.lengths = a.sess.lengths.Merge(b.sess.lengths)
		a.sess.hist.Merge(b.sess.hist)
		a.sess.uptimeAll = a.sess.uptimeAll.Merge(b.sess.uptimeAll)
		a.sess.uptimeShort = a.sess.uptimeShort.Merge(b.sess.uptimeShort)

		a.weekly.CPUIdlePct.Merge(&b.weekly.CPUIdlePct)
		a.weekly.RAMLoadPct.Merge(&b.weekly.RAMLoadPct)
		a.weekly.SwapLoad.Merge(&b.weekly.SwapLoad)
		a.weekly.SentBps.Merge(&b.weekly.SentBps)
		a.weekly.RecvBps.Merge(&b.weekly.RecvBps)

		for lb, bl := range b.labs {
			a.lab(lb).merge(bl)
		}

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
//
// It leaves the engine as it found it, so a resident engine (Live) can
// finalize after every epoch and go on folding: sessions still open are
// closed on a copy of the session aggregate, in sorted machine order
// (after finish, as in All, none are), and the Results share no storage
// with the engine.
func (a *streamAcc) finalize(machines []trace.MachineInfo, iterations []trace.Iteration) *Results {
	res := &Results{}

	ids := make([]string, 0, len(a.mach))
	for id := range a.mach {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	sess := a.sess
	sess.hist = a.sess.hist.Clone()
	for _, id := range ids {
		if m := a.mach[id]; m.sessOpen {
			sess.add(m.sessLen, a.histCap)
		}
	}

	attempts := 0
	for _, it := range iterations {
		attempts += it.Attempted
	}
	// sums returns a logged iteration's sums.
	sums := func(it *trace.Iteration) *iterSum { return &a.iters[a.iterIdx.of(it.Iter)] }

	// Table 2.
	both := a.t2no
	both.merge(&a.t2with)
	res.Table2 = Table2{
		Threshold: a.threshold,
		Reclass: ReclassifyStats{
			Threshold:       a.threshold,
			RawLoginSamples: a.rawLogin,
			Reclassified:    a.reclassified,
		},
		NoLogin:   a.t2no.column(attempts),
		WithLogin: a.t2with.column(attempts),
		Both:      both.column(attempts),
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
	var on, free stats.Sum
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
		Count:   sess.count,
		Mean:    time.Duration(sess.lengths.Mean() * float64(time.Hour)),
		StdDev:  time.Duration(sess.lengths.StdDev() * float64(time.Hour)),
		Hist:    sess.hist,
		HistCap: a.histCap,
	}
	if sess.count > 0 {
		res.Sessions.ShortFraction = sess.hist.InRangeFraction()
	}
	if all := sess.uptimeAll.Total(); all > 0 {
		res.Sessions.ShortUptimeFraction = sess.uptimeShort.Total() / all
	}

	// §5.2.2 power cycles, in sorted machine order.
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
	pc.DetectedSessions = sess.count
	if pc.DetectedSessions > 0 {
		pc.UndetectedRatio = float64(pc.TotalCycles)/float64(pc.DetectedSessions) - 1
	}
	pc.UptimePerCycle = time.Duration(perCycle.Mean() * float64(time.Hour))
	pc.UptimePerCycleSD = time.Duration(perCycle.StdDev() * float64(time.Hour))
	pc.LifetimePerCycle = time.Duration(lifetime.Mean() * float64(time.Hour))
	pc.LifetimePerCycleSD = time.Duration(lifetime.StdDev() * float64(time.Hour))
	res.PowerCycles = pc

	// Figure 5.
	weekly := a.weekly
	res.Weekly = &weekly

	// Figure 6, iteration-log order; zero result when no machine has
	// index metadata. On fleet-churn traces the denominator is the
	// per-iteration active fleet.
	var occ, freeEq stats.Sum
	if totalPerf := a.totalPerf.Total(); totalPerf != 0 {
		partial := false
		for i := range machines {
			if machines[i].PartialLifetime() {
				partial = true
				break
			}
		}
		for i := range iterations {
			it := &iterations[i]
			es := sums(it)
			denom := totalPerf
			if partial {
				denom = activePerf(machines, a.perf, it.Iter)
				if denom == 0 {
					continue // no fleet at this instant; nothing to compare against
				}
			}
			o := es.occ.Total() / denom
			f := es.freeIdle.Total() / denom
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
	names := make([]string, 0, len(a.labs))
	for lb := range a.labs {
		names = append(names, lb)
	}
	for i := range machines {
		m := &machines[i]
		if labMachines[m.Lab] == nil {
			labMachines[m.Lab] = make(map[string]bool)
			if a.labs[m.Lab] == nil {
				names = append(names, m.Lab) // the lab appears in the output
			}
		}
		labMachines[m.Lab][m.ID] = true
		labAttempts[m.Lab] += machineAttempts(m, iterations)
	}
	labs := make([]LabUsage, 0, len(names))
	for _, lb := range names {
		l := a.labs[lb]
		if l == nil {
			l = &labAcc{}
		}
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
	// zeros. Every sample adds its free RAM to its machine's RAM class
	// and its free disk to its lab, so those unions are the fleet's.
	var capRAM, capDisk stats.Sum
	for _, acc := range a.capClass {
		capRAM = capRAM.Merge(*acc)
	}
	for _, l := range a.labs {
		capDisk = capDisk.Merge(l.freeDisk)
	}
	rep := CapacityReport{
		AvgFreeRAMMBPerMachine:  capRAM.Mean(),
		FreeRAMByClass:          map[int]float64{},
		AvgFreeDiskGBPerMachine: capDisk.Mean(),
	}
	var iterRAM, iterDisk, iterOn stats.Sum
	for i := range iterations {
		c := sums(&iterations[i])
		iterRAM.Add(c.ramMB.Total())
		iterDisk.Add(c.diskGB.Total())
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

	res.Dropped = a.dropped() + on.Dropped() + free.Dropped() +
		perMach.Dropped() + perCycle.Dropped() + lifetime.Dropped() +
		res.Equivalence.Weekly.Dropped() + res.Equivalence.WeeklyOccupied.Dropped() +
		res.Equivalence.WeeklyFree.Dropped() + occ.Dropped() + freeEq.Dropped() +
		iterRAM.Dropped() + iterDisk.Dropped() + iterOn.Dropped()
	return res
}

// dropped counts the observations the engine's accumulators skipped.
func (a *streamAcc) dropped() int64 {
	n := a.totalPerf.Dropped() + a.t2no.dropped() + a.t2with.dropped() +
		a.sess.lengths.Dropped() + a.sess.uptimeAll.Dropped() + a.sess.uptimeShort.Dropped()
	for i := range a.age {
		n += a.age[i].Dropped()
	}
	for i := range a.iters {
		it := &a.iters[i]
		n += it.occ.Dropped() + it.freeIdle.Dropped() + it.ramMB.Dropped() + it.diskGB.Dropped()
	}
	w := &a.weekly
	n += w.CPUIdlePct.Dropped() + w.RAMLoadPct.Dropped() + w.SwapLoad.Dropped() +
		w.SentBps.Dropped() + w.RecvBps.Dropped()
	for _, l := range a.labs {
		n += l.ram.Dropped() + l.freeRAM.Dropped() + l.freeDisk.Dropped() + l.cpu.Dropped()
	}
	for _, c := range a.capClass {
		n += c.Dropped()
	}
	return n
}
