package trace

import (
	"bufio"
	"bytes"
	"cmp"
	"compress/gzip"
	"container/heap"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// Segmented traces. A sharded collector run leaves K independent TBv1
// segment files — one (or several, time-chunked) per coordinator shard —
// plus a JSON manifest describing them. The manifest is itself a valid
// trace "file": ReadFile sniffs the leading '{' and materialises
// the merged dataset, and MergeSegments compacts the segments into one
// canonical TBv1 trace by k-way-merging the per-machine sample streams
// without ever materialising a shard (each segment is consumed through a
// BinaryCursor — the same incremental decoder stream.Cursor wraps — and
// re-encoded through the streaming binaryEncoder, so peak memory is K
// cursors plus one sample per segment, independent of trace length).
//
// Invariants the compactor enforces:
//
//   - all segments share the sampling period, and iteration records with
//     the same number agree on their start instant (shards of one run
//     share one iteration clock; Attempted/Responded/ParseErrors sum);
//   - machine metadata is consistent: a machine catalogued by several
//     segments (time-chunked shards re-catalogue their machines) must
//     carry identical metadata everywhere;
//   - each segment is in canonical order — runs in ascending machine
//     order (so machine-contiguous: a machine never reappears), time
//     never going backwards inside a run — the order WriteBinary
//     produces for a frozen dataset. The k-way merge is only correct
//     over sorted inputs; a breach is an *OrderError naming the segment,
//     the offending sample's machine and iteration, and the machine
//     before it;
//   - no two segments claim overlapping iteration ranges for the same
//     machine — that means two shards probed one host, or two time
//     chunks overlap, and the violation is reported with machine/iter
//     coordinates as an *OverlapError rather than silently interleaved.
//
// Segments are decoded and re-encoded, never copied through as bytes: a
// sample's wire form depends on its machine's predictor, and the
// session-start predictor only advances on samples that carry a session
// — after a chunk boundary the input's and the output's predictors
// disagree for as long as nobody logs in, so a raw copy would be wrong
// exactly when a user is logged in.
//
// The merged catalogue keeps first-appearance order and the merged
// samples come out machine-major time-sorted — for segments written from
// frozen per-shard datasets the compacted trace is byte-identical to
// encoding the serial collector's dataset (asserted by the validate
// suite's shard arms).

// manifestFormat is the format tag inside a segment manifest; the
// leading '{' is what the content sniffers key on.
const manifestFormat = "winlab-segments-1"

// SegmentInfo describes one TBv1 segment file of a sharded run.
type SegmentInfo struct {
	Path     string `json:"path"`  // relative to the manifest's directory
	Shard    int    `json:"shard"` // coordinator shard that wrote it
	Machines int    `json:"machines"`
	Samples  uint64 `json:"samples"`

	// Iteration coverage: how many records, spanning which numbers.
	// FirstIter/LastIter are -1 for a segment with no iterations.
	Iterations int `json:"iterations"`
	FirstIter  int `json:"first_iter"`
	LastIter   int `json:"last_iter"`
}

// Manifest indexes the segment files of one sharded collection run.
type Manifest struct {
	Format   string        `json:"format"` // manifestFormat
	Start    time.Time     `json:"start"`
	End      time.Time     `json:"end"`
	PeriodNS time.Duration `json:"period_ns"`
	Segments []SegmentInfo `json:"segments"`
}

// Period returns the run's sampling period.
func (m *Manifest) Period() time.Duration { return m.PeriodNS }

// NewSegmentInfo summarises a frozen dataset for inclusion in a
// hand-built manifest — custom segment naming, or several time chunks
// per shard (the gridscale harness and ddcd write chunks as they fill).
// WriteSegments builds these automatically for the one-segment-per-shard
// layout.
func NewSegmentInfo(path string, shard int, d *Dataset) SegmentInfo {
	return segmentInfo(path, shard, d)
}

// segmentInfo summarises a frozen per-shard dataset for the manifest.
func segmentInfo(path string, shard int, d *Dataset) SegmentInfo {
	info := SegmentInfo{
		Path:       path,
		Shard:      shard,
		Machines:   len(d.Machines),
		Samples:    uint64(len(d.Samples)),
		Iterations: len(d.Iterations),
		FirstIter:  -1,
		LastIter:   -1,
	}
	for _, it := range d.Iterations {
		if info.FirstIter < 0 || it.Iter < info.FirstIter {
			info.FirstIter = it.Iter
		}
		if it.Iter > info.LastIter {
			info.LastIter = it.Iter
		}
	}
	return info
}

// WriteSegments writes each shard dataset as an independent TBv1 segment
// file ("<prefix>-NNN.tb") plus the manifest ("<prefix>.manifest.json")
// into dir, and returns the manifest path. Shard datasets must be frozen
// (SortSamples) first — WriteBinary keeps sample order, and the
// compactor's canonical-output guarantee is stated against
// machine-contiguous segments.
func WriteSegments(dir, prefix string, shards []*Dataset) (string, error) {
	if len(shards) == 0 {
		return "", fmt.Errorf("trace: no segments to write")
	}
	m := &Manifest{
		Format:   manifestFormat,
		Start:    shards[0].Start,
		End:      shards[0].End,
		PeriodNS: shards[0].Period,
	}
	for i, d := range shards {
		if d.Period != m.PeriodNS {
			return "", fmt.Errorf("trace: segment %d period %v differs from %v", i, d.Period, m.PeriodNS)
		}
		m.Start = minTime(m.Start, d.Start)
		m.End = maxTime(m.End, d.End)
		name := fmt.Sprintf("%s-%03d.tb", prefix, i)
		if err := WriteFileFormat(filepath.Join(dir, name), d, FormatTB); err != nil {
			return "", err
		}
		m.Segments = append(m.Segments, segmentInfo(name, i, d))
	}
	path := filepath.Join(dir, prefix+".manifest.json")
	return path, WriteManifest(path, m)
}

// WriteManifest serialises the manifest as indented JSON.
func WriteManifest(path string, m *Manifest) error {
	if m.Format == "" {
		m.Format = manifestFormat
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadManifest deserialises a segment manifest written by WriteManifest.
func ReadManifest(path string) (*Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return decodeManifest(f)
}

func decodeManifest(r io.Reader) (*Manifest, error) {
	var m Manifest
	dec := json.NewDecoder(r)
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("trace: segment manifest: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("trace: segment manifest: trailing data after the manifest object")
	}
	if m.Format != manifestFormat {
		return nil, fmt.Errorf("trace: segment manifest: unsupported format %q (want %q)", m.Format, manifestFormat)
	}
	if m.PeriodNS <= 0 {
		return nil, fmt.Errorf("trace: segment manifest: non-positive period %v", m.PeriodNS)
	}
	return &m, nil
}

// SegmentPaths resolves the manifest's segment paths against the
// directory the manifest was read from (absolute entries pass through).
func (m *Manifest) SegmentPaths(dir string) []string {
	paths := make([]string, len(m.Segments))
	for i, seg := range m.Segments {
		if filepath.IsAbs(seg.Path) {
			paths[i] = seg.Path
		} else {
			paths[i] = filepath.Join(dir, seg.Path)
		}
	}
	return paths
}

// OverlapError reports two segments claiming overlapping iteration
// ranges for the same machine — either two shards probed one host, or
// two time chunks of one shard overlap. The coordinates name both
// segments and the iteration spans they observed the machine over.
type OverlapError struct {
	Machine            string
	SegmentA, SegmentB string // segment names (paths) in manifest order
	LoA, HiA           int    // iteration span of Machine in SegmentA
	LoB, HiB           int    // iteration span of Machine in SegmentB
}

func (e *OverlapError) Error() string {
	return fmt.Sprintf("trace: merge: segments %q and %q overlap on machine %s: iterations [%d,%d] vs [%d,%d]",
		e.SegmentA, e.SegmentB, e.Machine, e.LoA, e.HiA, e.LoB, e.HiB)
}

// MergeSegments compacts the manifest's segment files (resolved against
// dir) into one canonical TBv1 trace on w, streaming: no segment is
// materialised. Segment files may be gzip-compressed (sniffed, as
// everywhere else). The merged header counts come from the segment
// streams themselves, not the manifest — an inaccurate manifest cannot
// corrupt the output (check.CheckManifest is the consistency gate).
func MergeSegments(w io.Writer, m *Manifest, dir string) error {
	paths := m.SegmentPaths(dir)
	readers := make([]io.Reader, len(paths))
	for i, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("trace: merge: %w", err)
		}
		defer f.Close()
		br := bufio.NewReaderSize(f, ioBufSize)
		if head, _ := br.Peek(len(gzipMagic)); bytes.Equal(head, gzipMagic) {
			gz, err := gzip.NewReader(br)
			if err != nil {
				return fmt.Errorf("trace: merge: %s: %w", path, err)
			}
			defer gz.Close()
			readers[i] = gz
		} else {
			readers[i] = br
		}
	}
	names := make([]string, len(m.Segments))
	for i, seg := range m.Segments {
		names[i] = seg.Path
	}
	return MergeSegmentStreams(w, names, readers)
}

// OrderError reports a segment whose samples are not in canonical order:
// a run that does not sort after the run before it (Machine <
// PrevMachine — which covers a machine reappearing after others, the
// contiguity breach), or, with Machine == PrevMachine, time going
// backwards inside a machine's run (or a hostile stream interning the
// machine twice to open a second run for it). The k-way merge is only
// correct over sorted inputs, so the compactor refuses the segment
// instead of emitting a trace that is not machine-major time-sorted.
// Iter is the iteration of the offending sample.
type OrderError struct {
	Segment     string
	Machine     string
	PrevMachine string
	Iter        int
}

func (e *OrderError) Error() string {
	if e.Machine == e.PrevMachine {
		return fmt.Sprintf("trace: merge: %s is not time-sorted: machine %s goes back in time (or restarts its run) at iteration %d",
			e.Segment, e.Machine, e.Iter)
	}
	return fmt.Sprintf("trace: merge: %s is not machine-sorted: %q (iteration %d) follows %q",
		e.Segment, e.Machine, e.Iter, e.PrevMachine)
}

// segHead is one segment's decode state in the k-way merge: the cursor
// and its look-ahead sample.
type segHead struct {
	idx  int
	name string
	c    *BinaryCursor
	s    Sample
	ref  uint64 // dictionary reference of s.Machine: the run's identity
}

// advance decodes the segment's next sample into the look-ahead,
// enforcing canonical order against the one it replaces. newRun reports
// that the sample opens another machine's run.
func (h *segHead) advance() (ok, newRun bool, err error) {
	prevMachine, prevTime := h.s.Machine, h.s.Time
	ok, err = h.c.Next(&h.s)
	if err != nil {
		return false, false, fmt.Errorf("trace: merge: %s: %w", h.name, err)
	}
	if !ok {
		return false, false, nil
	}
	if h.c.mref != h.ref {
		h.ref = h.c.mref
		if h.s.Machine <= prevMachine {
			return false, false, &OrderError{Segment: h.name, Machine: h.s.Machine, PrevMachine: prevMachine, Iter: h.s.Iter}
		}
		return true, true, nil
	}
	if h.s.Time.Before(prevTime) {
		return false, false, &OrderError{Segment: h.name, Machine: h.s.Machine, PrevMachine: prevMachine, Iter: h.s.Iter}
	}
	return true, false, nil
}

// before reports whether h's look-ahead sorts before o's in the merged
// order: (machine, time, segment index) — the canonical machine-major
// sample order SortSamples produces, with the index as a deterministic
// tie-break.
func (h *segHead) before(o *segHead) bool {
	if h.s.Machine != o.s.Machine {
		return h.s.Machine < o.s.Machine
	}
	return h.earlier(o)
}

// earlier is before for two heads known to hold the same machine.
func (h *segHead) earlier(o *segHead) bool {
	if !h.s.Time.Equal(o.s.Time) {
		return h.s.Time.Before(o.s.Time)
	}
	return h.idx < o.idx
}

// segQueue is the min-heap of segment heads.
type segQueue []*segHead

func (q segQueue) Len() int           { return len(q) }
func (q segQueue) Less(a, b int) bool { return q[a].before(q[b]) }
func (q segQueue) Swap(a, b int)      { q[a], q[b] = q[b], q[a] }
func (q *segQueue) Push(x any)        { *q = append(*q, x.(*segHead)) }
func (q *segQueue) Pop() any {
	old := *q
	n := len(old)
	h := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return h
}

// runnerUp returns the head that sorts second, nil when the queue holds
// one: in a binary heap it is the smaller child of the root.
func (q segQueue) runnerUp() *segHead {
	switch {
	case len(q) < 2:
		return nil
	case len(q) > 2 && q.Less(2, 1):
		return q[2]
	}
	return q[1]
}

// segRange is the iteration span one segment observed for one machine.
type segRange struct {
	seg    int
	lo, hi int
}

// overlapIn looks for two segments whose iteration spans for one machine
// intersect — they claim the same probes. spans is sorted in place.
func overlapIn(machine string, spans []segRange, name func(int) string) *OverlapError {
	slices.SortStableFunc(spans, func(a, b segRange) int { return cmp.Compare(a.lo, b.lo) })
	for i := 1; i < len(spans); i++ {
		if spans[i].lo <= spans[i-1].hi {
			return &OverlapError{
				Machine:  machine,
				SegmentA: name(spans[i-1].seg), LoA: spans[i-1].lo, HiA: spans[i-1].hi,
				SegmentB: name(spans[i].seg), LoB: spans[i].lo, HiB: spans[i].hi,
			}
		}
	}
	return nil
}

// MergeSegmentStreams is the io-level core of MergeSegments: each reader
// must be an uncompressed TBv1 stream; names label errors (use the
// segment paths). Exported so torture tests can drive the compactor
// through hostile readers (truncation, one-byte reads) without touching
// the filesystem.
func MergeSegmentStreams(w io.Writer, names []string, rs []io.Reader) error {
	if len(rs) == 0 {
		return fmt.Errorf("trace: no segments to merge")
	}
	name := func(i int) string {
		if i < len(names) && names[i] != "" {
			return names[i]
		}
		return fmt.Sprintf("segment %d", i)
	}

	heads := make([]*segHead, len(rs))
	for i, r := range rs {
		c, err := NewBinaryCursor(r)
		if err != nil {
			return fmt.Errorf("trace: merge: %s: %w", name(i), err)
		}
		heads[i] = &segHead{idx: i, name: name(i), c: c}
	}

	// Reconcile headers: one period, union bounds.
	start, end := heads[0].c.Start(), heads[0].c.End()
	period := heads[0].c.Period()
	for _, h := range heads[1:] {
		if h.c.Period() != period {
			return fmt.Errorf("trace: merge: %s has period %v, want %v", h.name, h.c.Period(), period)
		}
		start = minTime(start, h.c.Start())
		end = maxTime(end, h.c.End())
	}

	// Merged catalogue: first-appearance order, duplicates must agree.
	// Time-chunked shards re-catalogue their machines in the same order,
	// so a repeat is usually found where the previous one pointed, with
	// no hashing; the index map serves first appearances and reorderings.
	most := 0
	for _, h := range heads {
		most = max(most, len(h.c.Machines()))
	}
	machines := make([]MachineInfo, 0, most)
	catalogued := make(map[string]int, most)
	for _, h := range heads {
		next := 0
		for _, mi := range h.c.Machines() {
			at, known := next, next < len(machines) && machines[next].ID == mi.ID
			if !known {
				at, known = catalogued[mi.ID]
			}
			if !known {
				at = len(machines)
				catalogued[mi.ID] = at
				machines = append(growTo(machines, math.MaxUint64), mi)
			} else if machines[at] != mi {
				return fmt.Errorf("trace: merge: %s catalogues machine %s with conflicting metadata", h.name, mi.ID)
			}
			next = at + 1
		}
	}

	// Merged iteration log: shards share one iteration clock.
	logs := make([][]Iteration, len(heads))
	for i, h := range heads {
		logs[i] = h.c.Iterations()
	}
	iterations, err := mergeIterationLogs(logs)
	if err != nil {
		return err
	}

	var declared uint64
	for _, h := range heads {
		declared += h.c.DeclaredSamples()
	}

	enc := newBinaryEncoder(w, start, end, period, machines, iterations, declared)

	// Prime the queue with each segment's first sample.
	q := make(segQueue, 0, len(heads))
	for _, h := range heads {
		ok, err := h.c.Next(&h.s)
		if err != nil {
			return fmt.Errorf("trace: merge: %s: %w", h.name, err)
		}
		if ok {
			h.ref = h.c.mref
			q = append(q, h)
		}
	}
	heap.Init(&q)

	// Galloping k-way merge. The least head's run is drained for as long
	// as its next sample still sorts before the runner-up, so the heap
	// is touched once per run, not once per sample. Every input is
	// machine-sorted (advance enforces it), so the merged stream visits
	// each machine once: spans — the iteration range each segment
	// contributed to the machine being merged, the overlap evidence — is
	// complete when the machine changes, and is judged and reset there.
	// A span keeps growing when two segments interleave on one machine,
	// so the report carries each segment's whole claimed range; the first
	// overlap found is the lexically first machine's.
	var (
		overlap *OverlapError
		machine string
		spans   []segRange
	)
	for len(q) > 0 {
		h := q[0]
		if h.s.Machine != machine {
			if overlap == nil {
				overlap = overlapIn(machine, spans, name)
			}
			machine, spans = h.s.Machine, spans[:0]
		}
		at := slices.IndexFunc(spans, func(r segRange) bool { return r.seg == h.idx })
		if at < 0 {
			at = len(spans)
			spans = append(spans, segRange{seg: h.idx, lo: h.s.Iter, hi: h.s.Iter})
		}
		span := &spans[at]

		// The runner-up gates the drain only while it holds the same
		// machine; otherwise the whole run sorts before it.
		ru := q.runnerUp()
		contested := ru != nil && ru.s.Machine == machine
		for {
			enc.writeSample(&h.s)
			span.lo, span.hi = min(span.lo, h.s.Iter), max(span.hi, h.s.Iter)
			ok, newRun, err := h.advance()
			if err != nil {
				return err
			}
			if !ok {
				heap.Pop(&q)
				break
			}
			if newRun || contested && !h.earlier(ru) {
				heap.Fix(&q, 0)
				break
			}
		}
	}
	if overlap == nil {
		overlap = overlapIn(machine, spans, name)
	}
	if overlap != nil {
		return overlap
	}
	return enc.flush()
}

// readManifestDataset materialises the merged dataset behind a segment
// manifest by streaming MergeSegments into an in-memory TBv1 image and
// decoding it — one merge semantic for the compactor and the read path.
func readManifestDataset(m *Manifest, dir string) (*Dataset, error) {
	var buf bytes.Buffer
	if err := MergeSegments(&buf, m, dir); err != nil {
		return nil, err
	}
	return readBinary(bufio.NewReaderSize(&buf, ioBufSize), int64(buf.Len()))
}
