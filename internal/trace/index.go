package trace

import (
	"hash/fnv"
	"sync/atomic"
)

// Index is the shared, immutable view over a frozen Dataset that every
// analysis consumer reads from: per-machine contiguous sample spans over
// the machine/time-sorted sample slice, interned machine IDs in sorted
// order, and the cached Attempts/Days aggregates.
//
// Sorting the samples per machine is the one expensive pass every
// consumer of a trace needs; the index performs it once per dataset, and
// the spans it hands out are the order analysis.All feeds its single
// accumulator pass in — the same machine-contiguous order a TBv1 file
// written from the frozen dataset streams in.
//
// An Index is safe for concurrent use. The slices it returns are shared,
// not copies — treat them as read-only.
type Index struct {
	ds *Dataset

	// Freeze-time fingerprint, used to detect structural mutation of the
	// dataset after indexing (see Dataset.Index).
	samplesLen  int
	samplesPtr  *Sample // &ds.Samples[0] at freeze time; nil when empty
	itersLen    int
	machinesLen int

	ids   []string // machine IDs with ≥1 sample, sorted
	spans []span   // aligned with ids: ds.Samples[lo:hi]
	byID  map[string]int
	info  map[string]*MachineInfo // static metadata, all catalogued machines

	attempts int
	days     float64

	// fingerprint digests the frozen epoch's identity (see Fingerprint).
	fingerprint uint64

	// stale is set by Dataset.InvalidateIndex: the dataset's sample
	// fields were edited in place. The fingerprint cannot see in-place
	// edits — this flag is how Valid learns about them.
	stale atomic.Bool

	// memo is the value a consumer derived from this frozen index and
	// recorded on it (see Memo).
	memo atomic.Pointer[any]
}

// span is one machine's contiguous sample range in the sorted slice.
type span struct{ lo, hi int }

// Freeze sorts the dataset's samples (machine, then time — the one
// explicit mutation of the freeze step), builds the index and caches it on
// the dataset. Calling Freeze again after structural changes rebuilds the
// index; see Dataset.Index for the automatic staleness check.
func (d *Dataset) Freeze() *Index {
	d.idxMu.Lock()
	defer d.idxMu.Unlock()
	return d.freezeLocked()
}

// Index returns the dataset's cached index, building it on first use. If
// the dataset was structurally mutated since the last freeze (samples,
// iterations or machines appended, truncated or reallocated), the
// mutation is detected and the index is rebuilt. In-place edits to sample
// fields are not detectable — call InvalidateIndex after those.
func (d *Dataset) Index() *Index {
	if ix := d.idx.Load(); ix != nil && ix.valid() {
		return ix
	}
	d.idxMu.Lock()
	defer d.idxMu.Unlock()
	if ix := d.idx.Load(); ix != nil && ix.valid() {
		return ix
	}
	return d.freezeLocked()
}

// InvalidateIndex drops the cached index, and with it the value recorded
// on it (see Index.Memo). Use after mutating sample fields in place
// (structural changes are detected automatically).
//
// The dropped index is also marked stale, so a consumer still holding a
// reference to it (handed out before the edit) sees Valid report false,
// and copies cut before the edit are no longer continued by later ones
// (see Since).
func (d *Dataset) InvalidateIndex() {
	d.idxMu.Lock()
	defer d.idxMu.Unlock()
	d.gen++
	d.dropIndexLocked()
}

// dropIndexLocked marks the cached index stale and drops it; the caller
// holds d.idxMu.
func (d *Dataset) dropIndexLocked() {
	if ix := d.idx.Load(); ix != nil {
		ix.stale.Store(true)
	}
	d.idx.Store(nil)
}

// freezeLocked builds the index; the caller holds d.idxMu.
func (d *Dataset) freezeLocked() *Index {
	d.sortSamplesLocked()
	ix := &Index{
		ds:          d,
		samplesLen:  len(d.Samples),
		itersLen:    len(d.Iterations),
		machinesLen: len(d.Machines),
		byID:        make(map[string]int),
		info:        make(map[string]*MachineInfo, len(d.Machines)),
	}
	if len(d.Samples) > 0 {
		ix.samplesPtr = &d.Samples[0]
	}
	for i := 0; i < len(d.Samples); {
		j := i + 1
		id := d.Samples[i].Machine
		for j < len(d.Samples) && d.Samples[j].Machine == id {
			j++
		}
		ix.byID[id] = len(ix.ids)
		ix.ids = append(ix.ids, id)
		ix.spans = append(ix.spans, span{lo: i, hi: j})
		i = j
	}
	for i := range d.Machines {
		ix.info[d.Machines[i].ID] = &d.Machines[i]
	}
	for _, it := range d.Iterations {
		ix.attempts += it.Attempted
	}
	ix.days = d.End.Sub(d.Start).Hours() / 24
	ix.fingerprint = fingerprintLocked(d)
	d.idx.Store(ix)
	return ix
}

// fingerprintLocked digests the dataset's identity at freeze time; the
// caller holds d.idxMu and the samples are already machine/time-sorted.
func fingerprintLocked(d *Dataset) uint64 {
	if n := len(d.Samples); n > 0 {
		return FingerprintBounds(d, &d.Samples[0], &d.Samples[n-1])
	}
	return FingerprintBounds(d, nil, nil)
}

// FingerprintBounds is the digest Index.Fingerprint reports for d once
// frozen, computed from d's header and the first and last samples of its
// (machine, time) order without sorting anything: first is the earliest
// sample of the smallest machine ID, last the latest of the largest (nil
// for both when d has no samples). A consumer that tracks those two
// samples as d grows — the query layer's resident analysis engine — names
// each epoch exactly as freezing it would.
func FingerprintBounds(d *Dataset, first, last *Sample) uint64 {
	h := fnv.New64a()
	var b [8]byte
	u64 := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		_, _ = h.Write(b[:])
	}
	u64(uint64(len(d.Samples)))
	u64(uint64(len(d.Iterations)))
	u64(uint64(len(d.Machines)))
	u64(uint64(d.Start.UnixNano()))
	u64(uint64(d.End.UnixNano()))
	u64(uint64(d.Period))
	if n := len(d.Iterations); n > 0 {
		it := d.Iterations[n-1]
		u64(uint64(it.Iter))
		u64(uint64(it.Start.UnixNano()))
		u64(uint64(it.Responded))
	}
	if first != nil && last != nil {
		for _, s := range []*Sample{first, last} {
			_, _ = h.Write([]byte(s.Machine))
			u64(uint64(s.Iter))
			u64(uint64(s.Time.UnixNano()))
			u64(uint64(s.BootTime.UnixNano()))
		}
	}
	return h.Sum64()
}

// Fingerprint returns a stable 64-bit digest of the frozen epoch: sample,
// iteration and machine counts, the experiment bounds and period, and the
// boundary records (last iteration, first and last sorted sample). It is
// deterministic across processes — the same trace always fingerprints the
// same — and changes whenever the collector commits another iteration,
// which is what makes it the snapshot/ETag primitive of the query layer:
// equal fingerprints mean a cached aggregate is still valid, a changed
// fingerprint is an epoch advance.
//
// The digest reads boundary records only (O(1)), so it cannot see
// arbitrary in-place edits deep inside the sample slice; those are the
// job of InvalidateIndex, exactly as for the structural staleness check.
func (ix *Index) Fingerprint() uint64 { return ix.fingerprint }

// Valid reports whether the index still describes its dataset: the
// structural fingerprint matches (no appends, truncations or
// reallocations since freeze) and InvalidateIndex has not flagged an
// in-place edit. The trace doctor uses this as the index-agreement
// invariant; analysis code normally never needs it because
// Dataset.Index() re-freezes automatically.
func (ix *Index) Valid() bool {
	return !ix.stale.Load() && ix.valid()
}

// valid reports whether the index still matches the dataset's structure.
func (ix *Index) valid() bool {
	d := ix.ds
	if ix.samplesLen != len(d.Samples) || ix.itersLen != len(d.Iterations) ||
		ix.machinesLen != len(d.Machines) {
		return false
	}
	return len(d.Samples) == 0 || ix.samplesPtr == &d.Samples[0]
}

// Memo returns the value recorded on the index by SetMemo, or nil.
func (ix *Index) Memo() any {
	if p := ix.memo.Load(); p != nil {
		return *p
	}
	return nil
}

// SetMemo records one value derived from this frozen index — the
// analysis engine records its pass here, so a later consumer of the same
// epoch need not repeat it. The slot holds one value (the last recorded)
// and lives and dies with the index: InvalidateIndex, SortSamples and any
// structural change that makes Dataset.Index rebuild leave it behind with
// the old index. Safe for concurrent use; the value is shared, so treat
// it as read-only.
func (ix *Index) SetMemo(v any) { ix.memo.Store(&v) }

// Machines returns the machine IDs that have at least one sample, in
// sorted order — the deterministic iteration order every consumer uses
// (map iteration order would make float accumulation order, and therefore
// the last bits of every mean, vary run to run).
func (ix *Index) Machines() []string { return ix.ids }

// Samples returns one machine's samples in time order, as a subslice of
// the dataset's sorted sample slice (shared storage; do not mutate, do
// not append).
func (ix *Index) Samples(id string) []Sample {
	n, ok := ix.byID[id]
	if !ok {
		return nil
	}
	sp := ix.spans[n]
	return ix.ds.Samples[sp.lo:sp.hi:sp.hi]
}

// EachMachine calls fn once per machine with samples, in sorted machine
// order.
func (ix *Index) EachMachine(fn func(id string, ss []Sample)) {
	for n, id := range ix.ids {
		sp := ix.spans[n]
		fn(id, ix.ds.Samples[sp.lo:sp.hi:sp.hi])
	}
}

// Machine returns the static metadata for one machine, or nil.
func (ix *Index) Machine(id string) *MachineInfo { return ix.info[id] }

// Attempts returns the cached total number of probe attempts.
func (ix *Index) Attempts() int { return ix.attempts }

// Days returns the cached experiment length in (fractional) days.
func (ix *Index) Days() float64 { return ix.days }
