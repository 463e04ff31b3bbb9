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
//   - A live collector publishes stamped prefix views of one growing
//     trace (ddc.DatasetSink.SnapshotEvery). The Store keeps one
//     resident analysis engine (analysis.Live) across those epochs:
//     Publish folds only what the view added since the previous one
//     (trace.Dataset.Since) and finalizes at once, so a publish costs
//     O(new samples + machines + iterations) and the snapshot holds
//     Results, never the view. Any other dataset — a trace file, a
//     final frozen trace — is held by its snapshot until first use. If
//     the caller already analysed it (analysis.All or MainResults, which
//     record their pass on the frozen index), that pass is served;
//     otherwise one analysis.All pass runs. Either way the aggregates —
//     the results, the Meta block, the ETag — are built from results
//     plus an Info lazily exactly once (sync.Once), so the cold cost is
//     at most one analysis pass per epoch, counting the caller's own,
//     no matter how many requests race in.
//
//   - Each Snapshot carries a per-endpoint response cache: the first
//     request for an endpoint marshals its DTO (encoding/json) and
//     publishes the bytes with a CAS; every later request serves the
//     same []byte. Cache invalidation is trivial because it never
//     happens — a new epoch is a new Snapshot with an empty cache, and
//     the old one is garbage.
//
// The frozen trace.Index fingerprint is the snapshot primitive: it names
// the dataset contents, makes the ETag strong, and lets two processes
// serving the same trace emit the same validator.
package query

import (
	"encoding/json"
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

	// The resident engine and the view cut it has absorbed, written by
	// publishers under mu; nil and the zero Mark when the last publish
	// was not a stamped view.
	live *analysis.Live
	mark trace.Mark
}

// NewStore returns a Store that analyses published datasets with opts.
// Zero opts reproduce the paper's parameters.
func NewStore(opts analysis.Options) *Store {
	return &Store{opts: opts, bins: 20}
}

// Publish installs ds as the new current snapshot and returns its epoch.
// ds is read-only from then on: the caller must not mutate it
// afterwards. ddc.DatasetSink.SnapshotEvery publishes views of its
// append-only storage, which no writer touches (trace.Dataset.ClonePrefix).
//
// A stamped view (trace.Dataset.ClonePrefix) is analysed inline by the
// Store's resident engine: when it continues the previous publish's
// view — same origin, nothing reordered in between — only its tail is
// folded; otherwise the engine restarts from the whole view. Either
// way the snapshot keeps the Results and an Info carrying the frozen
// index's exact fingerprint, not ds. Any other dataset is kept by its
// snapshot until the first reader needs it, which then releases it: the
// reader takes the engine pass recorded on ds's frozen index under the
// Store's options (analysis.Recorded) when there is one, and runs
// analysis.All otherwise. After editing sample fields in place before
// publishing, call ds.InvalidateIndex, which drops a recorded pass along
// with the index.
func (st *Store) Publish(ds *trace.Dataset) uint64 {
	if ds == nil {
		return st.epoch.Load()
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	snap := &Snapshot{opts: st.opts, bins: st.bins}
	if res, info, ok := st.advance(ds); ok {
		snap.res, snap.info = res, info
	} else {
		snap.ds = ds
	}
	snap.epoch = st.epoch.Add(1)
	st.cur.Store(snap)
	return snap.epoch
}

// advance brings the resident engine up to ds and finalizes it; ok is
// false when ds is not a stamped view or the engine cannot analyse it
// exactly (analysis.Live.Add), and ds then takes the deferred path. The
// caller holds st.mu.
func (st *Store) advance(ds *trace.Dataset) (*analysis.Results, Info, bool) {
	mark, stamped := ds.Mark()
	if !stamped {
		st.live, st.mark = nil, trace.Mark{}
		return nil, Info{}, false
	}
	samples, iterations, cont := ds.Since(st.mark)
	if !cont || !st.live.Add(iterations, samples) {
		st.live = analysis.NewLive(ds.Start, ds.End, ds.Period, ds.Machines, st.opts)
		if !st.live.Add(ds.Iterations, ds.Samples) {
			st.live, st.mark = nil, trace.Mark{}
			return nil, Info{}, false
		}
	}
	st.mark = mark
	first, last := st.live.Bounds()
	return st.live.Results(), Info{
		Fingerprint: trace.FingerprintBounds(ds, first, last),
		Start:       ds.Start,
		End:         ds.End,
		Period:      ds.Period,
		Iterations:  len(ds.Iterations),
		Samples:     len(ds.Samples),
		Machines:    len(ds.Machines),
	}, true
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
	st.live, st.mark = nil, trace.Mark{}
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
	ds    *trace.Dataset    // Publish of an unstamped dataset: analysed by build, then released
	res   *analysis.Results // PublishResults, the resident engine's, or what build derived from ds
	info  Info
	opts  analysis.Options
	bins  int

	once  sync.Once
	agg   atomic.Pointer[aggregates]
	cache [numEndpoints]atomic.Pointer[cachedBody]
}

// cachedBody is one endpoint's encoded response with its Content-Length
// as a ready-made header value slice, so that a cache hit sends a sized
// body (not a chunked one, and HEAD reports the length) without
// formatting a number.
type cachedBody struct {
	b    []byte
	clen []string
}

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
		// A caller that analysed ds before publishing it (analysis.All,
		// MainResults) left the pass on the index; take it.
		if s.res = analysis.Recorded(idx, s.opts); s.res == nil {
			s.res = analysis.All(ds, s.opts)
		}
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
// on first use. A nil body with a nil error means the aggregate is
// unavailable in this snapshot (results published without a heatmap or
// weekly profiles); an error means the results hold a value JSON cannot
// carry (NaN, ±Inf), and nothing is cached. Concurrent first requests
// may race to encode; the CAS keeps the cache single-valued and the
// losers' work is identical bytes.
func (s *Snapshot) body(ep int) (*cachedBody, error) {
	if c := s.cache[ep].Load(); c != nil {
		return c, nil
	}
	b, err := s.encode(ep)
	if b == nil || err != nil {
		return nil, err
	}
	c := &cachedBody{b: b, clen: []string{strconv.Itoa(len(b))}}
	if s.cache[ep].CompareAndSwap(nil, c) {
		return c, nil
	}
	return s.cache[ep].Load(), nil
}

// encode builds endpoint ep's DTO from the snapshot's results and
// marshals it; nil bytes and a nil error mean the aggregate is
// unavailable.
func (s *Snapshot) encode(ep int) ([]byte, error) {
	a := s.Aggregates()
	res := a.res
	var doc any
	switch ep {
	case epEpoch:
		doc = &a.meta

	case epSummary:
		doc = &Summary{
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

	case epAvailability:
		av := &Availability{Meta: a.meta, Points: make([]AvailabilityPoint, len(res.Availability.Points))}
		for i, p := range res.Availability.Points {
			av.Points[i] = AvailabilityPoint{Iter: p.Iter, T: p.Time.Unix(), On: p.PoweredOn, Free: p.UserFree}
		}
		doc = av

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
		doc = ls

	case epMachines:
		ms := &Machines{Meta: a.meta, Machines: make([]Machine, len(res.Uptimes))}
		for i, u := range res.Uptimes {
			ms.Machines[i] = Machine{ID: u.Machine, Lab: a.labOf[u.Machine], UptimeRatio: u.Ratio, Nines: u.Nines}
		}
		doc = ms

	case epWeekly:
		if res.Weekly == nil {
			return nil, nil
		}
		doc = &Weekly{
			Meta:        a.meta,
			SlotMinutes: 7 * 24 * 60 / stats.SlotsPerWeek,
			CPUIdlePct:  res.Weekly.CPUIdlePct.Means(),
			RAMLoadPct:  res.Weekly.RAMLoadPct.Means(),
			SwapLoadPct: res.Weekly.SwapLoad.Means(),
			SentBps:     res.Weekly.SentBps.Means(),
			RecvBps:     res.Weekly.RecvBps.Means(),
		}

	case epEquivalence:
		doc = &Equivalence{
			Meta:           a.meta,
			Occupied:       res.Equivalence.OccupiedRatio,
			Free:           res.Equivalence.FreeRatio,
			Total:          res.Equivalence.TotalRatio,
			WeeklyTotal:    res.Equivalence.Weekly.Means(),
			WeeklyOccupied: res.Equivalence.WeeklyOccupied.Means(),
			WeeklyFree:     res.Equivalence.WeeklyFree.Means(),
		}

	case epUptimes:
		doc = &Uptimes{
			Meta:    a.meta,
			Bins:    s.bins,
			Counts:  analysis.UptimeHistogram(res.Uptimes, s.bins),
			Above50: analysis.CountAbove(res.Uptimes, 0.5),
			Above80: analysis.CountAbove(res.Uptimes, 0.8),
			Above90: analysis.CountAbove(res.Uptimes, 0.9),
		}

	case epHeatmap:
		hm := res.Heatmap
		if hm == nil {
			return nil, nil
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
		doc = h

	default:
		return nil, nil
	}
	return json.Marshal(doc)
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
