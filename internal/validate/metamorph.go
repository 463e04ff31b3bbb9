package validate

import (
	"cmp"
	"fmt"
	"os"
	"slices"

	"winlab/internal/analysis"
	"winlab/internal/experiment"
	"winlab/internal/gridfleet"
	"winlab/internal/scenario"
	"winlab/internal/trace"
	"winlab/internal/trace/check"
)

// cloneDataset copies the parts of ds a metamorphic transform rewrites.
func cloneDataset(ds *trace.Dataset) *trace.Dataset {
	return &trace.Dataset{
		Start:      ds.Start,
		End:        ds.End,
		Period:     ds.Period,
		Machines:   slices.Clone(ds.Machines),
		Iterations: slices.Clone(ds.Iterations),
		Samples:    slices.Clone(ds.Samples),
	}
}

// diffRelabelled is R2, machine relabelling: within each lab, machine
// IDs are permuted so that their sort order reverses, which changes the
// order the engine folds machines in. Every aggregate must be unchanged,
// float bits included; the per-machine rows (uptime ratios, heatmap
// rows) carry the new IDs and are mapped back before the comparison.
func diffRelabelled(ds *trace.Dataset, want *analysis.Results) string {
	byLab := map[string][]string{}
	for _, m := range ds.Machines {
		byLab[m.Lab] = append(byLab[m.Lab], m.ID)
	}
	to, back := map[string]string{}, map[string]string{}
	for _, ids := range byLab {
		slices.Sort(ids)
		for i, id := range ids {
			to[id] = ids[len(ids)-1-i]
			back[to[id]] = id
		}
	}
	rename := func(id string, m map[string]string) string {
		if n, ok := m[id]; ok {
			return n
		}
		return id
	}
	r := cloneDataset(ds)
	for i := range r.Machines {
		r.Machines[i].ID = rename(r.Machines[i].ID, to)
	}
	for i := range r.Samples {
		r.Samples[i].Machine = rename(r.Samples[i].Machine, to)
	}
	got := analysis.All(r, analysis.Options{})
	for i := range got.Uptimes {
		got.Uptimes[i].Machine = rename(got.Uptimes[i].Machine, back)
	}
	for i := range got.Heatmap.Machines {
		got.Heatmap.Machines[i].Machine = rename(got.Heatmap.Machines[i].Machine, back)
	}
	return check.FirstDiff(want, got)
}

// dupSuffix names R3's copy of a machine or user.
const dupSuffix = "~copy"

// diffDuplicated is R3, fleet duplication: a disjoint copy of every
// machine and user, probed in the same iterations. Every count, Figure
// 3's series and the fleet totals double, the weekly profiles hold
// every observation twice, and the means, percentages and ratios —
// the equivalence ratio above all, a ratio of fleet sums (§5.4) — keep
// their bits.
func diffDuplicated(ds *trace.Dataset, want *analysis.Results) string {
	d := cloneDataset(ds)
	for _, m := range ds.Machines {
		m.ID += dupSuffix
		d.Machines = append(d.Machines, m)
	}
	for _, s := range ds.Samples {
		s.Machine += dupSuffix
		if s.SessionUser != "" {
			s.SessionUser += dupSuffix
		}
		d.Samples = append(d.Samples, s)
	}
	for i := range d.Iterations {
		it := &d.Iterations[i]
		it.Attempted, it.Responded, it.ParseErrors = 2*it.Attempted, 2*it.Responded, 2*it.ParseErrors
	}
	got := analysis.All(d, analysis.Options{})

	w := *want // the expected Results: want with every count doubled
	for _, c := range []*analysis.Column{&w.Table2.NoLogin, &w.Table2.WithLogin, &w.Table2.Both} {
		c.Samples *= 2
	}
	w.Table2.Reclass.RawLoginSamples *= 2
	w.Table2.Reclass.Reclassified *= 2
	w.SessionAge.Buckets = slices.Clone(want.SessionAge.Buckets)
	for i := range w.SessionAge.Buckets {
		w.SessionAge.Buckets[i].Samples *= 2
	}
	w.Availability.Points = slices.Clone(want.Availability.Points)
	for i := range w.Availability.Points {
		p := &w.Availability.Points[i]
		p.PoweredOn, p.UserFree = 2*p.PoweredOn, 2*p.UserFree
	}
	w.Availability.AvgPoweredOn *= 2
	w.Availability.AvgUserFree *= 2
	w.Uptimes = slices.Clone(want.Uptimes)
	for _, u := range want.Uptimes {
		u.Machine += dupSuffix
		w.Uptimes = append(w.Uptimes, u)
	}
	// Equal ratios tie in the sort, so compare the rows in one total order.
	for _, ups := range [][]analysis.MachineUptime{w.Uptimes, got.Uptimes} {
		slices.SortFunc(ups, func(a, b analysis.MachineUptime) int {
			return cmp.Or(cmp.Compare(b.Ratio, a.Ratio), cmp.Compare(a.Machine, b.Machine))
		})
	}
	w.Sessions.Count *= 2
	w.Sessions.Hist = want.Sessions.Hist.Clone()
	w.Sessions.Hist.Merge(want.Sessions.Hist)
	w.PowerCycles.TotalCycles *= 2
	w.PowerCycles.DetectedSessions *= 2
	weekly := *want.Weekly
	weekly.CPUIdlePct.Merge(&want.Weekly.CPUIdlePct)
	weekly.RAMLoadPct.Merge(&want.Weekly.RAMLoadPct)
	weekly.SwapLoad.Merge(&want.Weekly.SwapLoad)
	weekly.SentBps.Merge(&want.Weekly.SentBps)
	weekly.RecvBps.Merge(&want.Weekly.RecvBps)
	w.Weekly = &weekly
	w.Labs = slices.Clone(want.Labs)
	for i := range w.Labs {
		w.Labs[i].Machines *= 2
	}
	w.Capacity.FleetFreeRAMGB *= 2
	w.Capacity.FleetFreeDiskTB *= 2
	w.Capacity.AvgPoweredMachines *= 2
	heat := *want.Heatmap
	heat.FreeMachines = slices.Clone(want.Heatmap.FreeMachines)
	for i := range heat.FreeMachines {
		heat.FreeMachines[i] *= 2
	}
	heat.Machines = slices.Clone(want.Heatmap.Machines)
	for _, m := range want.Heatmap.Machines {
		m.Machine += dupSuffix
		heat.Machines = append(heat.Machines, m)
	}
	w.Heatmap = &heat
	return check.FirstDiff(&w, got)
}

// diffDropped asserts that no exact accumulator behind Results skipped
// an observation (non-finite, or beyond the accumulators' 2^38 range)
// on three kinds of trace: the paper run's reference Results, a run of
// the same length with fleet churn (two machines retire halfway, a
// replacement and a short-lived visitor join), and a small arithmetic
// grid collection read back through its segment manifest.
func diffDropped(cfg Config, paper *analysis.Results, add func(name, detail string)) {
	dropped := func(r *analysis.Results) string {
		if r.Dropped != 0 {
			return fmt.Sprintf("%d observations dropped", r.Dropped)
		}
		return ""
	}
	add("dropped/paper", dropped(paper))

	half := max(cfg.Days/2, 1)
	p4 := scenario.Machine{Lab: "L05", CPUModel: "Intel Pentium 4", CPUGHz: 2.6, RAMMB: 512, DiskGB: 55.8, IntIndex: 39.3, FPIndex: 36.7, BaseImgGB: 16}
	repl, visitor := p4, p4
	repl.ID, visitor.ID = "L05-R01", "L05-R02"
	churn := &scenario.Config{
		Name: "doctor-churn",
		Lifecycle: []scenario.Lifecycle{
			{Machine: "L05-M01", LeaveDay: half},
			{Machine: "L05-M02", LeaveDay: half},
			{Machine: "L05-R01", JoinDay: half},
			{Machine: "L05-R02", JoinDay: half / 2, LeaveDay: half + 1},
		},
		Extras: []scenario.Machine{repl, visitor},
	}
	ec, err := churn.Experiment(cfg.Seed)
	if err == nil {
		ec.Days = cfg.Days
		var res *experiment.Result
		if res, err = experiment.Run(ec); err == nil {
			add("dropped/churn", dropped(analysis.All(res.Dataset, analysis.Options{})))
		}
	}
	if err != nil {
		add("dropped/churn", err.Error())
	}

	dir, err := os.MkdirTemp("", "winlab-validate-grid-*")
	if err != nil {
		add("dropped/grid", err.Error())
		return
	}
	defer os.RemoveAll(dir)
	mpath, _, err := gridfleet.Collect(dir, uint64(cfg.Seed), 500, 2, 96, 32)
	if err != nil {
		add("dropped/grid", err.Error())
		return
	}
	grid, err := trace.ReadFile(mpath)
	if err != nil {
		add("dropped/grid", err.Error())
		return
	}
	add("dropped/grid", dropped(analysis.All(grid, analysis.Options{})))
}
