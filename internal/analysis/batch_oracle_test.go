package analysis

import (
	"runtime"
	"sort"
	"sync"
	"time"

	"winlab/internal/stats"
	"winlab/internal/trace"
)

// The per-artefact batch analysis as it stood before the single-pass
// accumulator became the only engine: ten functions over the frozen
// trace.Index, the hour-of-week heatmap, the interval pairing the index
// used to cache, and the worker pool that ran them concurrently. Moved
// here verbatim (identifiers prefixed "oracle"; the cached
// Index.Intervals became oracleIntervals) as the differential reference:
// TestEngineMatchesBatchOracle requires All, MainResults and Heatmap to
// reproduce these bodies field for field, float bits included. Their
// bare float sums became exact stats.Sums with the engine's.

// Classify classifies one sample under the given forgotten-session
// threshold, computing its session age on the spot as the oracle bodies
// below always did.
func Classify(s *trace.Sample, threshold time.Duration) Class {
	return classifyAge(s, s.SessionAge(), threshold)
}

// oracleIntervals pairs consecutive same-boot samples per machine, in
// machine-sorted then time order, dropping pairs more than maxGap apart
// (zero keeps everything).
func oracleIntervals(d *trace.Dataset, maxGap time.Duration) []trace.Interval {
	var out []trace.Interval
	d.Index().EachMachine(func(_ string, ss []trace.Sample) {
		for i := 1; i < len(ss); i++ {
			a, b := &ss[i-1], &ss[i]
			if !trace.SameBoot(a, b) {
				continue
			}
			if maxGap > 0 && b.Time.Sub(a.Time) > maxGap {
				continue
			}
			out = append(out, trace.Interval{A: a, B: b})
		}
	})
	return out
}

// oracleAvailability computes the Figure 3 series. User-free machines are
// powered-on machines without an occupied session, where sessions older
// than the threshold count as non-occupied (forgotten).
func oracleAvailability(d *trace.Dataset, threshold time.Duration) AvailabilitySeries {
	type counts struct{ on, free int }
	byIter := make(map[int]*counts, len(d.Iterations))
	for i := range d.Samples {
		s := &d.Samples[i]
		c := byIter[s.Iter]
		if c == nil {
			c = &counts{}
			byIter[s.Iter] = c
		}
		c.on++
		if !Classify(s, threshold).Occupied() {
			c.free++
		}
	}
	var series AvailabilitySeries
	var on, free stats.Running
	for _, it := range d.Iterations {
		c := byIter[it.Iter]
		if c == nil {
			c = &counts{}
		}
		series.Points = append(series.Points, AvailabilityPoint{
			Iter: it.Iter, Time: it.Start, PoweredOn: c.on, UserFree: c.free,
		})
		on.Add(float64(c.on))
		free.Add(float64(c.free))
	}
	series.AvgPoweredOn = on.Mean()
	series.AvgUserFree = free.Mean()
	return series
}

// oracleUptimeRatios computes the per-machine uptime ratios, sorted in
// descending order like the paper's Figure 4 (left). Per-machine
// samples come straight from the index's spans — no per-call counting
// pass.
//
// The numerator counts *distinct iterations answered*, not raw samples:
// a trace carrying duplicate samples for one machine in one iteration
// (a collector retry bug, a careless merge) used to inflate the ratio,
// up to the absurd Ratio > 1 — "more available than always on". The
// dataset invariant checker flags such traces (KindDuplicateSample);
// this function now also computes the right answer on them. The spans
// are time-sorted, so deduplication is one adjacent comparison per
// sample.
//
// The denominator is per-machine: a partial-lifetime machine (scenario
// fleet churn) is only "attempted" during the iterations it was a fleet
// member for, so a replacement that joined halfway through is not
// charged the probes that predate it. Full-lifetime machines keep the
// classic denominator, the full iteration count.
func oracleUptimeRatios(d *trace.Dataset) []MachineUptime {
	if len(d.Iterations) == 0 {
		return nil
	}
	idx := d.Index()
	out := make([]MachineUptime, 0, len(d.Machines))
	for _, m := range d.Machines {
		ss := idx.Samples(m.ID)
		answered := 0
		for i := range ss {
			if i == 0 || ss[i].Iter != ss[i-1].Iter {
				answered++
			}
		}
		attempts := machineAttempts(&m, d.Iterations)
		ratio := 0.0
		if attempts > 0 {
			ratio = float64(answered) / float64(attempts)
		}
		out = append(out, MachineUptime{
			Machine: m.ID,
			Ratio:   ratio,
			Nines:   stats.Nines(ratio),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ratio > out[j].Ratio })
	return out
}

// oracleDetectedSession is one machine session (boot → shutdown) as seen by the
// sampling methodology: a maximal run of consecutive same-boot samples.
// Its length is the uptime reported by the last sample of the run, which
// systematically underestimates the true length by up to one period — the
// same bias the paper's methodology has.
type oracleDetectedSession struct {
	Machine  string
	BootTime time.Time
	First    time.Time // first sample of the run
	Last     time.Time // last sample of the run
	Length   time.Duration
	Samples  int
}

// oracleDetectSessions extracts the machine sessions visible to the sampling
// methodology. Note that reboots happening entirely between two samples
// are merged into one detected session when the machine's uptime at the
// next sample is larger than the gap (only one reboot is detectable per
// gap, §5.2.1) — with a 15-minute period this loses the very short cycles
// that only SMART counters reveal.
func oracleDetectSessions(d *trace.Dataset) []oracleDetectedSession {
	var out []oracleDetectedSession
	d.Index().EachMachine(func(id string, ss []trace.Sample) {
		var cur *oracleDetectedSession
		for i := range ss {
			s := &ss[i]
			if cur != nil && trace.SameBoot(&trace.Sample{BootTime: cur.BootTime}, s) {
				cur.Last = s.Time
				cur.Length = s.Uptime
				cur.Samples++
				continue
			}
			if cur != nil {
				out = append(out, *cur)
			}
			cur = &oracleDetectedSession{
				Machine:  s.Machine,
				BootTime: s.BootTime,
				First:    s.Time,
				Last:     s.Time,
				Length:   s.Uptime,
				Samples:  1,
			}
		}
		if cur != nil {
			out = append(out, *cur)
		}
	})
	return out
}

// oracleSessions computes the §5.2.1 statistics with the given histogram cap
// (the paper uses 96 h with 24 four-hour bins).
func oracleSessions(d *trace.Dataset, histCap time.Duration, bins int) SessionStats {
	sessions := oracleDetectSessions(d)
	if histCap <= 0 {
		histCap = 96 * time.Hour
	}
	if bins <= 0 {
		bins = 24
	}
	st := SessionStats{
		Hist:    stats.NewHistogram(0, histCap.Hours(), bins),
		HistCap: histCap,
	}
	var lengths stats.Running
	var uptimeAll, uptimeShort stats.Sum
	for _, s := range sessions {
		h := s.Length.Hours()
		lengths.Add(h)
		st.Hist.Add(h)
		uptimeAll.Add(h)
		if s.Length <= histCap {
			uptimeShort.Add(h)
		}
	}
	st.Count = len(sessions)
	st.Mean = time.Duration(lengths.Mean() * float64(time.Hour))
	st.StdDev = time.Duration(lengths.StdDev() * float64(time.Hour))
	if st.Count > 0 {
		st.ShortFraction = st.Hist.InRangeFraction()
	}
	if uptimeAll.Total() > 0 {
		st.ShortUptimeFraction = uptimeShort.Total() / uptimeAll.Total()
	}
	return st
}

// oracleSessionAge computes the Figure 2 profile. maxHours bounds the profile
// (ages at or beyond it are folded into the last bucket); the paper plots
// about 24 hours.
func oracleSessionAge(d *trace.Dataset, maxHours int) SessionAgeProfile {
	if maxHours <= 0 {
		maxHours = 24
	}
	accs := make([]stats.Running, maxHours)
	maxGap := 2 * d.Period
	for _, iv := range oracleIntervals(d, maxGap) {
		if !iv.B.HasSession() {
			continue
		}
		h := int(iv.B.SessionAge() / time.Hour)
		if h < 0 {
			continue
		}
		if h >= maxHours {
			h = maxHours - 1
		}
		accs[h].Add(iv.CPUIdlePct())
	}
	p := SessionAgeProfile{Buckets: make([]AgeBucket, maxHours)}
	for h := range accs {
		p.Buckets[h] = AgeBucket{
			Hour:       h,
			Samples:    accs[h].N(),
			CPUIdlePct: accs[h].Mean(),
		}
	}
	return p
}

// oraclePowerCycles computes the SMART-based stability statistics.
//
// Per machine, the number of cycles in the monitoring window is the
// difference between the SMART cycle counter of the last and first
// samples, plus one: the boot that produced the first sample is itself a
// cycle that the difference misses.
func oraclePowerCycles(d *trace.Dataset) PowerCycleStats {
	idx := d.Index()
	days := idx.Days()

	var st PowerCycleStats
	var perMach, perCycle, lifetime stats.Running
	idx.EachMachine(func(id string, ss []trace.Sample) {
		if len(ss) == 0 {
			return
		}
		first, last := &ss[0], &ss[len(ss)-1]
		cycles := last.PowerCycles - first.PowerCycles + 1
		if cycles < 1 {
			cycles = 1
		}
		st.TotalCycles += cycles
		perMach.Add(float64(cycles))

		// Powered-on hours accumulated during the window. The first
		// sample's uptime predates the counter difference, so add it back
		// (in whole hours the SMART attribute would have counted).
		hours := float64(last.PowerOnHours-first.PowerOnHours) + first.Uptime.Hours()
		if hours > 0 {
			perCycle.Add(hours / float64(cycles))
		}

		if last.PowerCycles > 0 {
			lifetime.Add(float64(last.PowerOnHours) / float64(last.PowerCycles))
		}
	})
	st.AvgPerMachine = perMach.Mean()
	st.SDPerMachine = perMach.StdDev()
	if days > 0 {
		st.CyclesPerDay = perMach.Mean() / days
	}
	st.DetectedSessions = len(oracleDetectSessions(d))
	if st.DetectedSessions > 0 {
		st.UndetectedRatio = float64(st.TotalCycles)/float64(st.DetectedSessions) - 1
	}
	st.UptimePerCycle = time.Duration(perCycle.Mean() * float64(time.Hour))
	st.UptimePerCycleSD = time.Duration(perCycle.StdDev() * float64(time.Hour))
	st.LifetimePerCycle = time.Duration(lifetime.Mean() * float64(time.Hour))
	st.LifetimePerCycleSD = time.Duration(lifetime.StdDev() * float64(time.Hour))
	return st
}

// oracleWeekly computes the Figure 5 weekly distributions. Sample-level metrics
// (memory, swap) aggregate by sample slot; interval metrics (CPU idleness,
// network rates) aggregate by the slot of the closing sample.
func oracleWeekly(d *trace.Dataset) *WeeklyProfiles {
	w := &WeeklyProfiles{}
	for i := range d.Samples {
		s := &d.Samples[i]
		w.RAMLoadPct.Add(s.Time, float64(s.MemLoadPct))
		w.SwapLoad.Add(s.Time, float64(s.SwapLoadPct))
	}
	for _, iv := range oracleIntervals(d, 2*d.Period) {
		w.CPUIdlePct.Add(iv.B.Time, iv.CPUIdlePct())
		w.SentBps.Add(iv.B.Time, iv.SentBps())
		w.RecvBps.Add(iv.B.Time, iv.RecvBps())
	}
	return w
}

// oracleIdlenessWhen returns the CPU-idleness statistics over the intervals
// whose closing sample satisfies pred — e.g. "labs closed" hours. The
// paper's §5.3 observation that absolute idleness concentrates in nights
// and weekends is the comparison oracleIdlenessWhen(closed) vs oracleIdlenessWhen(open).
func oracleIdlenessWhen(d *trace.Dataset, pred func(time.Time) bool) stats.Running {
	var r stats.Running
	for _, iv := range oracleIntervals(d, 2*d.Period) {
		if pred(iv.B.Time) {
			r.Add(iv.CPUIdlePct())
		}
	}
	return r
}

// oracleEquivalence computes the cluster-equivalence ratio of a trace. Machines
// with no NBench index metadata are skipped. Unweighted (perf index forced
// to 1 for every machine) behaviour is available via the normalize flag,
// which the ablation bench uses to quantify how much index-weighting
// matters.
// For traces with partial-lifetime machines (scenario fleet churn) the
// dedicated-cluster denominator is per-iteration: the comparison cluster
// at any instant is the fleet that existed at that instant, so a machine
// contributes to the denominator only while it is a fleet member.
// Full-lifetime traces keep the classic static denominator.
func oracleEquivalence(d *trace.Dataset, normalize bool) EquivalenceResult {
	perf := make(map[string]float64, len(d.Machines))
	var perfSum stats.Sum
	partial := false
	for _, m := range d.Machines {
		p := m.PerfIndex()
		if !normalize {
			p = 1
		}
		perf[m.ID] = p
		perfSum.Add(p)
		partial = partial || m.PartialLifetime()
	}
	var res EquivalenceResult
	totalPerf := perfSum.Total()
	if totalPerf == 0 {
		return res
	}

	type slotSum struct{ occ, free stats.Sum }
	sums := make(map[int]*slotSum, len(d.Iterations))
	for _, iv := range oracleIntervals(d, 2*d.Period) {
		p, ok := perf[iv.B.Machine]
		if !ok {
			continue
		}
		ss := sums[iv.B.Iter]
		if ss == nil {
			ss = &slotSum{}
			sums[iv.B.Iter] = ss
		}
		contrib := iv.CPUIdlePct() / 100 * p
		if iv.B.HasSession() {
			ss.occ.Add(contrib)
		} else {
			ss.free.Add(contrib)
		}
	}

	var occ, free stats.Running
	for _, it := range d.Iterations {
		ss := sums[it.Iter]
		if ss == nil {
			ss = &slotSum{}
		}
		denom := totalPerf
		if partial {
			denom = activePerf(d.Machines, perf, it.Iter)
			if denom == 0 {
				continue // no fleet at this instant; nothing to compare against
			}
		}
		o := ss.occ.Total() / denom
		f := ss.free.Total() / denom
		occ.Add(o)
		free.Add(f)
		res.WeeklyOccupied.Add(it.Start, o)
		res.WeeklyFree.Add(it.Start, f)
		res.Weekly.Add(it.Start, o+f)
	}
	res.OccupiedRatio = occ.Mean()
	res.FreeRatio = free.Mean()
	res.TotalRatio = res.OccupiedRatio + res.FreeRatio
	return res
}

// oracleByLab computes per-laboratory usage with the given forgotten-session
// threshold. Labs are returned in name order.
func oracleByLab(d *trace.Dataset, threshold time.Duration) []LabUsage {
	type acc struct {
		machines map[string]bool
		samples  int
		occupied int
		ram      stats.Running
		freeRAM  stats.Running
		freeDisk stats.Running
		cpu      stats.Running
	}
	accs := map[string]*acc{}
	get := func(lb string) *acc {
		a := accs[lb]
		if a == nil {
			a = &acc{machines: map[string]bool{}}
			accs[lb] = a
		}
		return a
	}
	ramByID := make(map[string]int, len(d.Machines))
	labOf := make(map[string]string, len(d.Machines))
	// Per-lab probe attempts: full-lifetime machines are attempted every
	// iteration, partial-lifetime machines (fleet churn) only while they
	// are members — identical to iterations × machines on static fleets.
	labAttempts := make(map[string]int, 8)
	for _, m := range d.Machines {
		ramByID[m.ID] = m.RAMMB
		labOf[m.ID] = m.Lab
		get(m.Lab).machines[m.ID] = true
		labAttempts[m.Lab] += machineAttempts(&m, d.Iterations)
	}
	for i := range d.Samples {
		s := &d.Samples[i]
		a := get(s.Lab)
		a.samples++
		if Classify(s, threshold).Occupied() {
			a.occupied++
		}
		a.ram.Add(float64(s.MemLoadPct))
		if ram := ramByID[s.Machine]; ram > 0 {
			a.freeRAM.Add(float64(ram) * (100 - float64(s.MemLoadPct)) / 100)
		}
		a.freeDisk.Add(s.FreeDiskGB)
	}
	for _, iv := range oracleIntervals(d, 2*d.Period) {
		get(labOf[iv.B.Machine]).cpu.Add(iv.CPUIdlePct())
	}

	out := make([]LabUsage, 0, len(accs))
	for lb, a := range accs {
		u := LabUsage{
			Lab:                  lb,
			Machines:             len(a.machines),
			CPUIdlePct:           a.cpu.Mean(),
			RAMLoadPct:           a.ram.Mean(),
			FreeRAMMBPerMachine:  a.freeRAM.Mean(),
			FreeDiskGBPerMachine: a.freeDisk.Mean(),
		}
		if attempts := labAttempts[lb]; attempts > 0 {
			u.UptimePct = 100 * float64(a.samples) / float64(attempts)
			u.OccupiedPct = 100 * float64(a.occupied) / float64(attempts)
		}
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Lab < out[j].Lab })
	return out
}

// oracleCapacity computes the memory/disk idleness report.
func oracleCapacity(d *trace.Dataset) CapacityReport {
	ramByID := make(map[string]int, len(d.Machines))
	for _, m := range d.Machines {
		ramByID[m.ID] = m.RAMMB
	}
	var freeRAM, freeDisk stats.Running
	classAcc := map[int]*stats.Running{}
	perIter := map[int]*struct {
		ramMB  stats.Sum
		diskGB stats.Sum
		on     int
	}{}
	for i := range d.Samples {
		s := &d.Samples[i]
		ram := ramByID[s.Machine]
		freeMB := float64(ram) * (100 - float64(s.MemLoadPct)) / 100
		freeRAM.Add(freeMB)
		freeDisk.Add(s.FreeDiskGB)
		if acc := classAcc[ram]; acc == nil {
			classAcc[ram] = &stats.Running{}
		}
		classAcc[ram].Add(freeMB)
		it := perIter[s.Iter]
		if it == nil {
			it = &struct {
				ramMB  stats.Sum
				diskGB stats.Sum
				on     int
			}{}
			perIter[s.Iter] = it
		}
		it.ramMB.Add(freeMB)
		it.diskGB.Add(s.FreeDiskGB)
		it.on++
	}
	var iterRAM, iterDisk, iterOn stats.Running
	for _, it := range d.Iterations {
		acc := perIter[it.Iter]
		if acc == nil {
			iterRAM.Add(0)
			iterDisk.Add(0)
			iterOn.Add(0)
			continue
		}
		iterRAM.Add(acc.ramMB.Total())
		iterDisk.Add(acc.diskGB.Total())
		iterOn.Add(float64(acc.on))
	}
	rep := CapacityReport{
		AvgFreeRAMMBPerMachine:  freeRAM.Mean(),
		FleetFreeRAMGB:          iterRAM.Mean() / 1024,
		FreeRAMByClass:          map[int]float64{},
		AvgFreeDiskGBPerMachine: freeDisk.Mean(),
		FleetFreeDiskTB:         iterDisk.Mean() / 1024,
		AvgPoweredMachines:      iterOn.Mean(),
	}
	for ram, acc := range classAcc {
		rep.FreeRAMByClass[ram] = acc.Mean()
	}
	return rep
}

// oracleUnusedMemoryPct returns the paper's headline "unused memory averaging
// 42.1%": 100 minus the overall mean RAM load.
func oracleUnusedMemoryPct(d *trace.Dataset, threshold time.Duration) float64 {
	t2 := oracleMainResults(d, threshold)
	return 100 - t2.Both.RAMLoadPct
}

// oracleReclassify computes the reclassification statistics for a dataset.
func oracleReclassify(d *trace.Dataset, threshold time.Duration) ReclassifyStats {
	st := ReclassifyStats{Threshold: threshold}
	for i := range d.Samples {
		s := &d.Samples[i]
		if !s.HasSession() {
			continue
		}
		st.RawLoginSamples++
		if Classify(s, threshold) == Forgotten {
			st.Reclassified++
		}
	}
	return st
}

// oracleMainResults computes Table 2. Samples are classified with the forgotten
// threshold: Forgotten samples are counted in the No-login column, exactly
// as §4.2 prescribes ("we consider samples reporting an interactive
// user-session equal or above than 10 hours as being captured on
// non-occupied machines").
//
// Memory, swap and disk statistics come from raw samples; CPU idleness and
// network rates come from consecutive same-boot sample pairs, classified
// by the later sample of the pair. Interval metrics skip pairs separated
// by more than twice the sampling period (collector outages).
func oracleMainResults(d *trace.Dataset, threshold time.Duration) Table2 {
	idx := d.Index()
	var no, with, both table2Acc

	for i := range d.Samples {
		s := &d.Samples[i]
		acc := &no
		if Classify(s, threshold).Occupied() {
			acc = &with
		}
		for _, a := range []*table2Acc{acc, &both} {
			a.samples++
			a.ram.Add(float64(s.MemLoadPct))
			a.swap.Add(float64(s.SwapLoadPct))
			a.disk.Add(s.UsedDiskGB())
		}
	}

	maxGap := 2 * d.Period
	for _, iv := range oracleIntervals(d, maxGap) {
		acc := &no
		if Classify(iv.B, threshold).Occupied() {
			acc = &with
		}
		for _, a := range []*table2Acc{acc, &both} {
			a.cpuIdle.Add(iv.CPUIdlePct())
			a.sent.Add(iv.SentBps())
			a.recv.Add(iv.RecvBps())
		}
	}

	attempts := idx.Attempts()
	return Table2{
		Threshold: threshold,
		Reclass:   oracleReclassify(d, threshold),
		NoLogin:   no.column(attempts),
		WithLogin: with.column(attempts),
		Both:      both.column(attempts),
	}
}

// oracleHeatmap computes the hour-of-week heatmaps. Machines appear in catalog
// order; a machine with no samples gets an all-zero row. The per-cell
// denominator is the number of iterations whose start fell in the cell,
// and the numerator deduplicates to distinct iterations answered, the
// same correction oracleUptimeRatios applies.
func oracleHeatmap(d *trace.Dataset, threshold time.Duration) *HeatmapData {
	idx := d.Index()
	iters := make([]int, HeatHours)
	for _, it := range d.Iterations {
		iters[heatCell(it.Start)]++
	}
	hd := &HeatmapData{
		IterationsPerCell: iters,
		FreeMachines:      FreeMachineHeat(oracleAvailability(d, threshold)),
		Machines:          make([]MachineHeat, 0, len(d.Machines)),
	}
	for _, m := range d.Machines {
		ss := idx.Samples(m.ID)
		counts := make([]int, HeatHours)
		for i := range ss {
			if i > 0 && ss[i].Iter == ss[i-1].Iter {
				continue // duplicate sample for one iteration
			}
			counts[heatCell(ss[i].Time)]++
		}
		up := make([]float64, HeatHours)
		for c := range up {
			if iters[c] > 0 {
				up[c] = float64(counts[c]) / float64(iters[c])
			}
		}
		hd.Machines = append(hd.Machines, MachineHeat{Machine: m.ID, Lab: m.Lab, Uptime: up})
	}
	return hd
}

// oracleAll computes every headline artefact of the paper concurrently over a
// bounded worker pool and returns results identical to calling each serial
// function in turn.
//
// Identical means identical: the dataset is frozen once up front, so every
// worker reads the same machine-sorted spans and the same cached interval
// pairs, and each artefact's internal accumulation order is exactly the
// serial function's order. Parallelism only interleaves *between*
// artefacts, never inside one, so no floating-point reassociation occurs
// (asserted by TestAllMatchesSerial under -race).
func oracleAll(d *trace.Dataset, opts Options) *Results {
	if opts.Threshold == 0 {
		opts.Threshold = DefaultForgottenThreshold
	}
	if opts.HistCap <= 0 {
		opts.HistCap = 96 * time.Hour
	}
	if opts.HistBins <= 0 {
		opts.HistBins = 24
	}
	if opts.SessionAgeHours <= 0 {
		opts.SessionAgeHours = 24
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Freeze once: the single sort happens here, not N times inside the
	// workers.
	d.Index()

	res := &Results{}
	jobs := []func(){
		func() { res.Table2 = oracleMainResults(d, opts.Threshold) },
		func() { res.SessionAge = oracleSessionAge(d, opts.SessionAgeHours) },
		func() { res.Availability = oracleAvailability(d, opts.Threshold) },
		func() { res.Uptimes = oracleUptimeRatios(d) },
		func() { res.Sessions = oracleSessions(d, opts.HistCap, opts.HistBins) },
		func() { res.PowerCycles = oraclePowerCycles(d) },
		func() { res.Weekly = oracleWeekly(d) },
		func() { res.Equivalence = oracleEquivalence(d, !opts.UnweightedEquivalence) },
		func() { res.Labs = oracleByLab(d, opts.Threshold) },
		func() { res.Capacity = oracleCapacity(d) },
		func() { res.Heatmap = oracleHeatmap(d, opts.Threshold) },
	}
	if workers == 1 {
		for _, job := range jobs {
			job()
		}
		return res
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	ch := make(chan func())
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for job := range ch {
				job()
			}
		}()
	}
	for _, job := range jobs {
		ch <- job
	}
	close(ch)
	wg.Wait()
	return res
}
