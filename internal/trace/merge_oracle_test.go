package trace

import (
	"bufio"
	"container/heap"
	"fmt"
	"io"
	"sort"
)

// The segment compactor as it stood before the run-at-a-time merge: one
// heap.Fix and two string-keyed map operations per sample, over the
// oracle codec (codec_oracle_test.go). Moved here verbatim (identifiers
// prefixed "oracle"); the differential tests and FuzzMergeSegmentStreams
// hold MergeSegmentStreams to its output byte for byte. It does not
// check segment order — that gap is what *OrderError closed.

// newOracleCursorReader is the old NewBinaryCursor wrapper.
func newOracleCursorReader(r io.Reader) (*oracleCursor, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, ioBufSize)
	}
	return newOracleCursor(br)
}

// oracleSegHead is one segment's decode state in the k-way merge: the cursor,
// its look-ahead sample, and the per-segment contiguity carry.
type oracleSegHead struct {
	idx  int
	name string
	c    *oracleCursor
	s    Sample
	prev string // machine of the previous sample, for contiguity checks
}

// oracleSegQueue orders segment heads by (machine, time, segment index) — the
// canonical machine-major sample order SortSamples produces, with the
// index as a deterministic tie-break.
type oracleSegQueue []*oracleSegHead

func (q oracleSegQueue) Len() int { return len(q) }
func (q oracleSegQueue) Less(a, b int) bool {
	if q[a].s.Machine != q[b].s.Machine {
		return q[a].s.Machine < q[b].s.Machine
	}
	if !q[a].s.Time.Equal(q[b].s.Time) {
		return q[a].s.Time.Before(q[b].s.Time)
	}
	return q[a].idx < q[b].idx
}
func (q oracleSegQueue) Swap(a, b int) { q[a], q[b] = q[b], q[a] }
func (q *oracleSegQueue) Push(x any)   { *q = append(*q, x.(*oracleSegHead)) }
func (q *oracleSegQueue) Pop() any {
	old := *q
	n := len(old)
	h := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return h
}

// oracleMergeSegmentStreams is the io-level core of MergeSegments: each reader
// must be an uncompressed TBv1 stream; names label errors (use the
// segment paths). Exported so torture tests can drive the compactor
// through hostile readers (truncation, one-byte reads) without touching
// the filesystem.
func oracleMergeSegmentStreams(w io.Writer, names []string, rs []io.Reader) error {
	if len(rs) == 0 {
		return fmt.Errorf("trace: no segments to merge")
	}
	name := func(i int) string {
		if i < len(names) && names[i] != "" {
			return names[i]
		}
		return fmt.Sprintf("segment %d", i)
	}

	heads := make([]*oracleSegHead, len(rs))
	for i, r := range rs {
		c, err := newOracleCursorReader(r)
		if err != nil {
			return fmt.Errorf("trace: merge: %s: %w", name(i), err)
		}
		heads[i] = &oracleSegHead{idx: i, name: name(i), c: c}
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

	// Merged catalogue: first-appearance order, duplicates must agree
	// (time-chunked shards re-catalogue their machines).
	var machines []MachineInfo
	catalogued := map[string]MachineInfo{}
	for _, h := range heads {
		for _, mi := range h.c.Machines() {
			if prev, ok := catalogued[mi.ID]; ok {
				if prev != mi {
					return fmt.Errorf("trace: merge: %s catalogues machine %s with conflicting metadata", h.name, mi.ID)
				}
				continue
			}
			catalogued[mi.ID] = mi
			machines = append(machines, mi)
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

	enc := newOracleEncoder(w, start, end, period, machines, iterations, declared)

	// Prime the queue with each segment's first sample.
	q := make(oracleSegQueue, 0, len(heads))
	for _, h := range heads {
		ok, err := h.c.Next(&h.s)
		if err != nil {
			return fmt.Errorf("trace: merge: %s: %w", h.name, err)
		}
		if ok {
			h.prev = h.s.Machine
			q = append(q, h)
		}
	}
	heap.Init(&q)

	// K-way merge by (machine, time). ranges tracks, per machine, the
	// iteration span each segment contributed — the overlap evidence.
	// Spans are keyed by (machine, segment) so a span keeps growing even
	// when two segments interleave on one machine; the final report then
	// carries each segment's whole claimed range, not the first collision.
	type rangeKey struct {
		machine string
		seg     int
	}
	ranges := map[string][]segRange{}
	idxOf := map[rangeKey]int{}
	for q.Len() > 0 {
		h := q[0]
		enc.writeSample(&h.s)

		key := rangeKey{h.s.Machine, h.idx}
		if i, ok := idxOf[key]; ok {
			// Same segment extending its span. A machine reappearing in a
			// segment after other machines breaks the contiguity contract
			// (the heap's sortedness guarantee rests on it).
			if h.s.Machine != h.prev {
				return fmt.Errorf("trace: merge: %s is not machine-contiguous: %q reappears after other machines", h.name, h.s.Machine)
			}
			r := &ranges[h.s.Machine][i]
			if h.s.Iter < r.lo {
				r.lo = h.s.Iter
			}
			if h.s.Iter > r.hi {
				r.hi = h.s.Iter
			}
		} else {
			idxOf[key] = len(ranges[h.s.Machine])
			ranges[h.s.Machine] = append(ranges[h.s.Machine], segRange{seg: h.idx, lo: h.s.Iter, hi: h.s.Iter})
		}
		h.prev = h.s.Machine

		ok, err := h.c.Next(&h.s)
		if err != nil {
			return fmt.Errorf("trace: merge: %s: %w", h.name, err)
		}
		if ok {
			heap.Fix(&q, 0)
		} else {
			heap.Pop(&q)
		}
	}

	// Overlap detection, with coordinates: any two segments whose
	// iteration spans for one machine intersect claim the same probes.
	// Report the lexically first machine so the error is deterministic.
	var overlap *OverlapError
	for id, rs := range ranges {
		if len(rs) < 2 {
			continue
		}
		sort.Slice(rs, func(a, b int) bool { return rs[a].lo < rs[b].lo })
		for i := 1; i < len(rs); i++ {
			if rs[i].lo <= rs[i-1].hi {
				if overlap == nil || id < overlap.Machine {
					overlap = &OverlapError{
						Machine:  id,
						SegmentA: name(rs[i-1].seg), LoA: rs[i-1].lo, HiA: rs[i-1].hi,
						SegmentB: name(rs[i].seg), LoB: rs[i].lo, HiB: rs[i].hi,
					}
				}
				break
			}
		}
	}
	if overlap != nil {
		return overlap
	}
	return enc.flush()
}
