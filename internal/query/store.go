// Package query is the high-throughput serving layer: an HTTP/JSON API
// over live and historical traces where every response is a materialized
// aggregate served from a snapshot-isolated cache.
//
// The design has three moving parts:
//
//   - A Store holds the current Snapshot behind an atomic pointer.
//     Publishing a new dataset (or pre-computed results) advances the
//     epoch and swaps the pointer; readers never take a lock.
//
//   - A Snapshot owns either an immutable dataset clone, analysed on
//     first use by one analysis.All pass, or pre-computed
//     analysis.Results. Either way its aggregates — the results, the
//     Meta block, the ETag — are built from results plus an Info lazily
//     exactly once (sync.Once), so the cold cost is at most one analysis
//     pass per epoch no matter how many requests race in.
//
//   - Each Snapshot carries a per-endpoint response cache: the first
//     request for an endpoint encodes its JSON body with the hand-rolled
//     append encoders and publishes the bytes with a CAS; every later
//     request serves the same []byte. Cache invalidation is trivial
//     because it never happens — a new epoch is a new Snapshot with an
//     empty cache, and the old one is garbage.
//
// The frozen trace.Index fingerprint is the snapshot primitive: it names
// the dataset contents, makes the ETag strong, and lets two processes
// serving the same trace emit the same validator.
package query

import (
	"hash/fnv"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"winlab/internal/analysis"
	"winlab/internal/stats"
	"winlab/internal/trace"
)

// Endpoint identifiers index the per-snapshot response cache. /api/events
// is deliberately absent: events arrive between epochs, so that endpoint
// is dynamic (see events.go).
const (
	epEpoch = iota
	epSummary
	epAvailability
	epLabs
	epMachines
	epWeekly
	epEquivalence
	epUptimes
	epHeatmap
	numEndpoints
)

// Info describes the trace behind published results: PublishResults
// callers fill it from the stream header and cursor statistics (the
// streaming case, where analysis.AllStream consumed a TBv1 file and only
// the Results survive); Publish takes it from the dataset.
type Info struct {
	Fingerprint uint64 // 0 means derive one from the counts below
	Start, End  time.Time
	Period      time.Duration
	Iterations  int
	Samples     int
	Machines    int
}

// Store is the publication point: collectors (or loaders) publish
// datasets, the HTTP handler reads the current snapshot. All methods are
// safe for concurrent use; Current is a single atomic load.
type Store struct {
	opts analysis.Options
	bins int

	mu    sync.Mutex // serializes publishers only
	epoch atomic.Uint64
	cur   atomic.Pointer[Snapshot]
}

// NewStore returns a Store that analyses published datasets with opts.
// Zero opts reproduce the paper's parameters.
func NewStore(opts analysis.Options) *Store {
	return &Store{opts: opts, bins: 20}
}

// Publish installs ds as the new current snapshot and returns its epoch.
// The caller transfers ownership: ds must not be mutated afterwards
// (ddc.DatasetSink.SnapshotEvery publishes clones, which satisfies this
// by construction). Publishing is cheap — analysis is deferred to the
// first reader that needs it, which then releases the dataset.
func (st *Store) Publish(ds *trace.Dataset) uint64 {
	if ds == nil {
		return st.epoch.Load()
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	e := st.epoch.Add(1)
	st.cur.Store(&Snapshot{epoch: e, ds: ds, opts: st.opts, bins: st.bins})
	return e
}

// PublishResults installs pre-computed analysis results (the out-of-core
// path: analysis.AllStream over a TBv1 file). Every endpoint serves from
// them exactly as from a published dataset; zero Info counts are derived
// from the results.
func (st *Store) PublishResults(res *analysis.Results, info Info) uint64 {
	if res == nil {
		return st.epoch.Load()
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	e := st.epoch.Add(1)
	st.cur.Store(&Snapshot{epoch: e, res: res, info: info, opts: st.opts, bins: st.bins})
	return e
}

// Current returns the current snapshot, or nil before the first publish.
func (st *Store) Current() *Snapshot { return st.cur.Load() }

// Epoch returns the current epoch (0 before the first publish).
func (st *Store) Epoch() uint64 { return st.epoch.Load() }

// Snapshot is one immutable published dataset plus everything derived
// from it. All derived state is built exactly once; afterwards every
// access is read-only and lock-free.
type Snapshot struct {
	epoch uint64
	ds    *trace.Dataset    // Publish: analysed by build, then released
	res   *analysis.Results // PublishResults, or what build derived from ds
	info  Info
	opts  analysis.Options
	bins  int

	once  sync.Once
	agg   atomic.Pointer[aggregates]
	cache [numEndpoints]atomic.Pointer[[]byte]
}

// Epoch returns the snapshot's epoch.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// aggregates is the materialized per-epoch state the handler serves from.
type aggregates struct {
	meta    Meta
	etag    string   // strong validator: "<epoch>-<hex fingerprint>"
	etagHdr []string // the ETag as a ready-made header value slice
	res     *analysis.Results
	labOf   map[string]string // machine → lab, from the heatmap's catalogue rows
}

// Aggregates returns the snapshot's materialized aggregates, computing
// them on first use. Concurrent callers block on the one computation and
// then share its result — the "cold path amortized to one analysis pass
// per epoch" guarantee. The warm path is a single atomic load: the
// method-value closure for once.Do is only formed when the pointer is
// still nil, keeping warm calls allocation-free.
func (s *Snapshot) Aggregates() *aggregates {
	if a := s.agg.Load(); a != nil {
		return a
	}
	s.once.Do(s.build)
	return s.agg.Load()
}

func (s *Snapshot) build() {
	if ds := s.ds; ds != nil {
		idx := ds.Index() // freezes: the one sort the analysis pass reads
		s.res = analysis.All(ds, s.opts)
		s.info = Info{
			Fingerprint: idx.Fingerprint(),
			Start:       ds.Start,
			End:         ds.End,
			Period:      ds.Period,
			Iterations:  len(ds.Iterations),
			Samples:     len(ds.Samples),
			Machines:    len(ds.Machines),
		}
		s.ds = nil
	}
	a := &aggregates{res: s.res}
	info := s.info
	if info.Iterations == 0 {
		info.Iterations = len(a.res.Availability.Points)
	}
	if info.Samples == 0 {
		info.Samples = a.res.Table2.Both.Samples
	}
	if info.Machines == 0 {
		info.Machines = len(a.res.Uptimes)
	}
	fp := info.Fingerprint
	if fp == 0 {
		fp = infoFingerprint(info)
	}
	a.meta = Meta{
		Epoch:       s.epoch,
		Fingerprint: fingerprintHex(fp),
		Start:       info.Start,
		End:         info.End,
		PeriodSec:   info.Period.Seconds(),
		Iterations:  info.Iterations,
		Samples:     info.Samples,
		Machines:    info.Machines,
	}
	if hm := a.res.Heatmap; hm != nil {
		a.labOf = make(map[string]string, len(hm.Machines))
		for _, m := range hm.Machines {
			a.labOf[m.Machine] = m.Lab
		}
	}
	a.etag = `"` + strconv.FormatUint(s.epoch, 10) + "-" + a.meta.Fingerprint + `"`
	a.etagHdr = []string{a.etag}
	s.agg.Store(a)
}

// fingerprintHex renders a fingerprint the way the ETag carries it.
func fingerprintHex(fp uint64) string {
	s := strconv.FormatUint(fp, 16)
	return "0000000000000000"[len(s):] + s
}

// infoFingerprint digests an Info whose producer had no index fingerprint
// to offer. Weaker than the index digest (no sample content), but the
// ETag also carries the epoch, so staleness within one process is still
// impossible.
func infoFingerprint(info Info) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	put(uint64(info.Start.UnixNano()))
	put(uint64(info.End.UnixNano()))
	put(uint64(info.Period))
	put(uint64(info.Iterations))
	put(uint64(info.Samples))
	put(uint64(info.Machines))
	return h.Sum64()
}

// body returns the cached encoded response for endpoint ep, encoding it
// on first use. A nil return means the aggregate is unavailable in this
// snapshot (results published without a heatmap or weekly profiles). Concurrent first requests may race
// to encode; the CAS keeps the cache single-valued and the losers' work
// is identical bytes.
func (s *Snapshot) body(ep int) []byte {
	if p := s.cache[ep].Load(); p != nil {
		return *p
	}
	b := s.encode(ep)
	if b == nil {
		return nil
	}
	if s.cache[ep].CompareAndSwap(nil, &b) {
		return b
	}
	return *s.cache[ep].Load()
}

func (s *Snapshot) encode(ep int) []byte {
	a := s.Aggregates()
	res := a.res
	switch ep {
	case epEpoch:
		return appendMeta(nil, &a.meta)

	case epSummary:
		sm := &Summary{
			Meta:                a.meta,
			NoLogin:             dtoColumn(&res.Table2.NoLogin),
			WithLogin:           dtoColumn(&res.Table2.WithLogin),
			Both:                dtoColumn(&res.Table2.Both),
			AvgPoweredOn:        res.Availability.AvgPoweredOn,
			AvgUserFree:         res.Availability.AvgUserFree,
			EquivalenceOccupied: res.Equivalence.OccupiedRatio,
			EquivalenceFree:     res.Equivalence.FreeRatio,
			EquivalenceTotal:    res.Equivalence.TotalRatio,
			PowerCyclesTotal:    res.PowerCycles.TotalCycles,
			PowerCyclesPerDay:   res.PowerCycles.CyclesPerDay,
			LifetimePerCycleH:   res.PowerCycles.LifetimePerCycle.Hours(),
			SessionCount:        res.Sessions.Count,
			SessionMeanH:        res.Sessions.Mean.Hours(),
			FleetFreeRAMGB:      res.Capacity.FleetFreeRAMGB,
			FleetFreeDiskTB:     res.Capacity.FleetFreeDiskTB,
		}
		return appendSummary(nil, sm)

	case epAvailability:
		av := &Availability{Meta: a.meta, Points: make([]AvailabilityPoint, len(res.Availability.Points))}
		for i, p := range res.Availability.Points {
			av.Points[i] = AvailabilityPoint{Iter: p.Iter, T: p.Time.Unix(), On: p.PoweredOn, Free: p.UserFree}
		}
		return appendAvailability(nil, av)

	case epLabs:
		ls := &Labs{Meta: a.meta, Labs: make([]Lab, len(res.Labs))}
		for i, l := range res.Labs {
			ls.Labs[i] = Lab{
				Lab:         l.Lab,
				Machines:    l.Machines,
				UptimePct:   l.UptimePct,
				OccupiedPct: l.OccupiedPct,
				CPUIdlePct:  l.CPUIdlePct,
				RAMLoadPct:  l.RAMLoadPct,
				FreeRAMMB:   l.FreeRAMMBPerMachine,
				FreeDiskGB:  l.FreeDiskGBPerMachine,
			}
		}
		return appendLabs(nil, ls)

	case epMachines:
		ms := &Machines{Meta: a.meta, Machines: make([]Machine, len(res.Uptimes))}
		for i, u := range res.Uptimes {
			ms.Machines[i] = Machine{ID: u.Machine, Lab: a.labOf[u.Machine], UptimeRatio: u.Ratio, Nines: u.Nines}
		}
		return appendMachines(nil, ms)

	case epWeekly:
		if res.Weekly == nil {
			return nil
		}
		w := &Weekly{
			Meta:        a.meta,
			SlotMinutes: 7 * 24 * 60 / stats.SlotsPerWeek,
			CPUIdlePct:  res.Weekly.CPUIdlePct.Means(),
			RAMLoadPct:  res.Weekly.RAMLoadPct.Means(),
			SwapLoadPct: res.Weekly.SwapLoad.Means(),
			SentBps:     res.Weekly.SentBps.Means(),
			RecvBps:     res.Weekly.RecvBps.Means(),
		}
		return appendWeekly(nil, w)

	case epEquivalence:
		eq := &Equivalence{
			Meta:           a.meta,
			Occupied:       res.Equivalence.OccupiedRatio,
			Free:           res.Equivalence.FreeRatio,
			Total:          res.Equivalence.TotalRatio,
			WeeklyTotal:    res.Equivalence.Weekly.Means(),
			WeeklyOccupied: res.Equivalence.WeeklyOccupied.Means(),
			WeeklyFree:     res.Equivalence.WeeklyFree.Means(),
		}
		return appendEquivalence(nil, eq)

	case epUptimes:
		u := &Uptimes{
			Meta:    a.meta,
			Bins:    s.bins,
			Counts:  analysis.UptimeHistogram(res.Uptimes, s.bins),
			Above50: analysis.CountAbove(res.Uptimes, 0.5),
			Above80: analysis.CountAbove(res.Uptimes, 0.8),
			Above90: analysis.CountAbove(res.Uptimes, 0.9),
		}
		return appendUptimes(nil, u)

	case epHeatmap:
		hm := res.Heatmap
		if hm == nil {
			return nil
		}
		h := &Heatmap{
			Meta:         a.meta,
			Hours:        analysis.HeatHours,
			FreeMachines: hm.FreeMachines,
			Machines:     make([]MachineHeatRow, len(hm.Machines)),
		}
		for i, m := range hm.Machines {
			h.Machines[i] = MachineHeatRow{ID: m.Machine, Lab: m.Lab, Uptime: m.Uptime}
		}
		return appendHeatmap(nil, h)
	}
	return nil
}

func dtoColumn(c *analysis.Column) Column {
	return Column{
		Samples:     c.Samples,
		UptimePct:   c.UptimePct,
		CPUIdlePct:  c.CPUIdlePct,
		RAMLoadPct:  c.RAMLoadPct,
		SwapLoadPct: c.SwapLoadPct,
		DiskUsedGB:  c.DiskUsedGB,
		SentBps:     c.SentBps,
		RecvBps:     c.RecvBps,
	}
}
