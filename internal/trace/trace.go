// Package trace defines the monitoring trace: the samples the collector
// gathered, per-iteration bookkeeping, and the derived "interval"
// observations (CPU idleness and network rates between two consecutive
// samples of the same boot) that the paper's Table 2 is computed from.
package trace

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"winlab/internal/machine"
)

// Sample is one successful probe of one machine — the post-collected form
// of a W32Probe report.
type Sample struct {
	Iter    int // collector iteration number (0-based)
	Time    time.Time
	Machine string
	Lab     string

	BootTime     time.Time
	Uptime       time.Duration
	CPUIdle      time.Duration // cumulative since boot
	MemLoadPct   int
	SwapLoadPct  int
	DiskGB       float64
	FreeDiskGB   float64
	PowerCycles  int64
	PowerOnHours int64
	SentBytes    uint64
	RecvBytes    uint64

	SessionUser  string
	SessionStart time.Time
}

// HasSession reports whether an interactive user was logged in.
func (s *Sample) HasSession() bool { return s.SessionUser != "" }

// SessionAge returns the age of the interactive session at sample time.
func (s *Sample) SessionAge() time.Duration {
	if !s.HasSession() {
		return 0
	}
	return TimeSub(s.Time, s.SessionStart)
}

// UsedDiskGB returns the occupied disk space.
func (s *Sample) UsedDiskGB() float64 { return s.DiskGB - s.FreeDiskGB }

// FromSnapshot converts a parsed probe report into a sample.
func FromSnapshot(iter int, sn machine.Snapshot) Sample {
	return Sample{
		Iter:         iter,
		Time:         sn.Time,
		Machine:      sn.ID,
		Lab:          sn.Lab,
		BootTime:     sn.BootTime,
		Uptime:       sn.Uptime,
		CPUIdle:      sn.CPUIdle,
		MemLoadPct:   sn.MemLoadPct,
		SwapLoadPct:  sn.SwapLoadPct,
		DiskGB:       sn.DiskGB,
		FreeDiskGB:   sn.FreeDiskGB,
		PowerCycles:  sn.PowerCycles,
		PowerOnHours: sn.PowerOnHours,
		SentBytes:    sn.SentBytes,
		RecvBytes:    sn.RecvBytes,
		SessionUser:  sn.SessionUser,
		SessionStart: sn.SessionStart,
	}
}

// Iteration records one collector pass over the fleet.
type Iteration struct {
	Iter      int
	Start     time.Time
	End       time.Time // sweep end; zero when not recorded
	Attempted int
	Responded int

	// ParseErrors counts reports of this iteration that were received but
	// did not parse — machines that responded with garbage rather than
	// not at all.
	ParseErrors int
}

// MachineInfo is the static per-machine metadata the analysis needs
// (performance indexes for the equivalence ratio, hardware for grouping).
type MachineInfo struct {
	ID       string
	Lab      string
	RAMMB    int
	DiskGB   float64
	IntIndex float64
	FPIndex  float64

	// JoinIter and LeaveIter bound the machine's fleet membership in
	// iteration coordinates for partial-lifetime machines (scenario
	// fleet churn: a machine that joined mid-trace or was retired).
	// The machine is a member for JoinIter ≤ iter < LeaveIter, with
	// LeaveIter 0 meaning "until the end". The zero values — full
	// lifetime — are what every pre-lifecycle trace decodes to, so
	// legacy traces keep their exact semantics.
	JoinIter  int
	LeaveIter int
}

// PerfIndex returns the 50/50 combined NBench index (machine.PerfIndex).
func (m MachineInfo) PerfIndex() float64 { return machine.PerfIndex(m.IntIndex, m.FPIndex) }

// ActiveAt reports whether the machine was a fleet member at the given
// iteration (always true for full-lifetime machines).
func (m MachineInfo) ActiveAt(iter int) bool {
	return iter >= m.JoinIter && (m.LeaveIter == 0 || iter < m.LeaveIter)
}

// PartialLifetime reports whether the machine has a bounded membership
// window (joined after iteration 0 or left before the end).
func (m MachineInfo) PartialLifetime() bool { return m.JoinIter > 0 || m.LeaveIter > 0 }

// Dataset is a complete monitoring trace.
//
// A Dataset must not be copied by value after first use: the cached index
// (see Freeze/Index) is keyed to the instance.
type Dataset struct {
	Start, End time.Time
	Period     time.Duration
	Machines   []MachineInfo
	Iterations []Iteration
	Samples    []Sample

	// idx caches the frozen Index; idxMu serialises (re)builds. See
	// index.go.
	idxMu sync.Mutex
	idx   atomic.Pointer[Index]

	// Lineage (lineage.go), guarded by idxMu: lineID names the dataset
	// once it has been cloned from, gen counts the in-place reorders and
	// edits (SortSamples, Freeze, InvalidateIndex) that break a view's
	// continuation, stamp is what ClonePrefix recorded on a view, and
	// shared says the slices' storage is also a view's (set on the view
	// and on its origin; see ClonePrefix and Unshare).
	lineID uint64
	gen    uint64
	stamp  Mark
	shared bool
}

// Attempts returns the total number of probe attempts.
func (d *Dataset) Attempts() int {
	n := 0
	for _, it := range d.Iterations {
		n += it.Attempted
	}
	return n
}

// Days returns the experiment length in (fractional) days.
func (d *Dataset) Days() float64 {
	return d.End.Sub(d.Start).Hours() / 24
}

// SortSamples orders samples by machine then time, the order the pairing
// and session-detection passes require; samples with equal (machine, time)
// keep their relative order. A collector commits iteration-major — every
// machine's samples are spread over the whole slice — so ordering its
// output is a full transpose, not a touch-up; a dataset that was read
// from a file or already frozen is in order. Both cases are linear: one
// scan recognises an ordered slice and returns, otherwise the samples are
// bucketed by machine and permuted in place — in a fresh copy of the
// samples when d shares its storage with a view (see ClonePrefix), so
// the view keeps its order (see sortSamplesLocked). Freeze calls it
// once. Either way it ends every stamped view's continuation (see
// Since): a later view no longer extends an earlier one, and, like
// InvalidateIndex, it drops the cached index and what was recorded on
// it.
func (d *Dataset) SortSamples() {
	d.idxMu.Lock()
	defer d.idxMu.Unlock()
	d.sortSamplesLocked()
	d.dropIndexLocked()
}

// sortSamplesLocked is a counting sort on the machine ID followed by a
// per-machine check of the time order. The distinct IDs (at most the
// fleet size) are ranked by sorting them, not the samples; one pass then
// gives every sample its destination, and the permutation is applied in
// place by following its cycles — 4 bytes of index per sample instead of
// a second 208-byte-per-sample slice, which a 64 MB/shard grid run cannot
// afford. A dataset that shares its storage with a view must not be
// written in place, so its samples are copied first and the copy is
// permuted. Commit order within one machine is time order, so the time
// pass is normally one comparison per sample; a bucket that is not in
// order (hand-built or merged input) gets a stable sort by time. Indexes
// are uint32: 2³² samples would be 890 GB resident.
func (d *Dataset) sortSamplesLocked() {
	d.gen++
	s := d.Samples
	if samplesOrdered(s) {
		return
	}
	// Number the machines in first-seen order and count their samples;
	// dest[i] holds sample i's machine number until the destination pass
	// overwrites it.
	seen := make(map[string]uint32, len(d.Machines))
	ids := make([]string, 0, len(d.Machines))
	next := make([]uint32, 0, len(d.Machines))
	dest := make([]uint32, len(s))
	for i := range s {
		n, ok := seen[s[i].Machine]
		if !ok {
			n = uint32(len(ids))
			seen[s[i].Machine] = n
			ids = append(ids, s[i].Machine)
			next = append(next, 0)
		}
		dest[i] = n
		next[n]++
	}
	// Rank the IDs; next[n] turns from machine n's count into the output
	// position of its next sample, starting at its bucket's first slot.
	byID := make([]uint32, len(ids))
	for n := range byID {
		byID[n] = uint32(n)
	}
	slices.SortFunc(byID, func(a, b uint32) int { return strings.Compare(ids[a], ids[b]) })
	at := uint32(0)
	for _, n := range byID {
		at, next[n] = at+next[n], at
	}
	for i := range dest {
		n := dest[i]
		dest[i] = next[n]
		next[n]++
	}
	if d.shared {
		s = slices.Clone(s)
		d.Samples = s
	}
	// Apply the permutation: carry each displaced sample around its cycle.
	for i := range s {
		if dest[i] == uint32(i) {
			continue
		}
		carry := s[i]
		for j := dest[i]; j != uint32(i); j, dest[j] = dest[j], j {
			carry, s[j] = s[j], carry
		}
		s[i] = carry
	}
	// next[n] is now the end of machine n's bucket, so walking the ranks
	// walks the buckets in output order.
	lo := uint32(0)
	for _, n := range byID {
		bucket := s[lo:next[n]]
		lo = next[n]
		if !samplesOrdered(bucket) {
			slices.SortStableFunc(bucket, func(a, b Sample) int { return a.Time.Compare(b.Time) })
		}
	}
}

// samplesOrdered reports whether s is in (machine, time) order.
func samplesOrdered(s []Sample) bool {
	for i := 1; i < len(s); i++ {
		a, b := &s[i-1], &s[i]
		if a.Machine == b.Machine {
			if b.Time.Before(a.Time) {
				return false
			}
		} else if a.Machine > b.Machine {
			return false
		}
	}
	return true
}

// Interval is a pair of consecutive samples of the same machine within the
// same boot (no reboot in between). The paper computes CPU idleness and
// network rates over such intervals (§4.2): cumulative counters make the
// averages exact regardless of fluctuations inside the interval.
type Interval struct {
	A, B *Sample
}

// Duration returns the interval length.
func (iv Interval) Duration() time.Duration { return TimeSub(iv.B.Time, iv.A.Time) }

// CPUIdlePct returns the average CPU idleness percentage over the interval.
func (iv Interval) CPUIdlePct() float64 { return IdlePct(iv.A.CPUIdle, iv.B.CPUIdle, iv.Duration()) }

// SentBps and RecvBps return the average network rates over the interval in
// bits per second.
func (iv Interval) SentBps() float64 {
	return CounterBps(iv.A.SentBytes, iv.B.SentBytes, iv.Duration())
}

// RecvBps returns the average receive rate over the interval in bps.
func (iv Interval) RecvBps() float64 {
	return CounterBps(iv.A.RecvBytes, iv.B.RecvBytes, iv.Duration())
}

// IdlePct is the CPU idleness formula of an interval of length dt whose
// cumulative idle counter went from a to b, clamped to [0, 100]. The
// analysis engine, which computes dt once per interval, calls it
// directly.
func IdlePct(a, b, dt time.Duration) float64 {
	if dt <= 0 {
		return 0
	}
	p := 100 * float64(b-a) / float64(dt)
	if p < 0 {
		return 0
	}
	if p > 100 {
		return 100
	}
	return p
}

// CounterBps is the network-rate formula: the bits per second of a byte
// counter that went from a to b over dt; zero for an empty interval or a
// counter that went backwards.
func CounterBps(a, b uint64, dt time.Duration) float64 {
	if dt <= 0 || b < a {
		return 0
	}
	return float64(b-a) * 8 / dt.Seconds()
}

// SameBoot reports whether two samples belong to the same machine session.
// Boot timestamps within one second are considered equal (the probe prints
// whole seconds).
func SameBoot(a, b *Sample) bool { return SameBootTime(a.BootTime, b.BootTime) }

// SameBootTime is SameBoot on bare boot timestamps, for callers that keep
// a session's boot time rather than its first sample.
func SameBootTime(a, b time.Time) bool {
	d := TimeSub(b, a)
	if d < 0 {
		d = -d
	}
	return d <= time.Second
}

// TimeSub's integer path covers Unix seconds within ±2⁶² (±146 billion
// years), where neither the seconds nor their difference wrap, and
// differences below 2³² s (136 years), where seconds × 10⁹ plus the
// nanosecond difference cannot overflow a Duration either.
const (
	maxFastUnix = 1 << 62
	maxFastSub  = 1 << 32
)

// TimeSub returns t.Sub(u), bit for bit, from the two instants' Unix
// seconds and nanoseconds. time.Time.Sub checks every result for
// overflow with an Add and an Equal; trace instants are UTC, decoded
// from Unix nanoseconds and decades apart at most, so TimeSub does the
// subtraction alone. It falls back to Sub whenever the answer could
// differ: an instant that carries a monotonic clock reading (Sub then
// subtracts those when both do), Unix seconds beyond ±2⁶², or instants
// 2³² s or more apart (Sub then saturates). t != t.UTC() is the cheap test for the first case —
// UTC strips the reading — and it also sends instants in any other
// location to Sub, which is exact for them too.
func TimeSub(t, u time.Time) time.Duration {
	if t != t.UTC() || u != u.UTC() {
		return t.Sub(u)
	}
	tu, uu := t.Unix(), u.Unix()
	if tu <= -maxFastUnix || tu >= maxFastUnix || uu <= -maxFastUnix || uu >= maxFastUnix {
		return t.Sub(u)
	}
	ds := tu - uu
	if ds >= maxFastSub || ds <= -maxFastSub {
		return t.Sub(u)
	}
	return time.Duration(ds)*time.Second + time.Duration(t.Nanosecond()-u.Nanosecond())
}
