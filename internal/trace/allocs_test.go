package trace

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"time"
)

// Allocation pins: the three per-sample TBv1 loops — segment merge,
// WriteBinary, a cursor drain — allocate per segment and per machine,
// never per sample. Doubling every machine's samples must leave the
// allocation count where it was.

// fleetSegments builds the grid layout in miniature: shards × chunks
// frozen segment datasets over one fleet, perChunk iterations each,
// every machine answering every iteration. Chunks of a shard repeat its
// catalogue, as time-chunked shards do.
func fleetSegments(machines, shards, chunks, perChunk int) []*Dataset {
	const period = 15 * time.Minute
	var out []*Dataset
	for sh := 0; sh < shards; sh++ {
		lo, hi := sh*machines/shards, (sh+1)*machines/shards
		var catalogue []MachineInfo
		for i := lo; i < hi; i++ {
			catalogue = append(catalogue, MachineInfo{
				ID: fmt.Sprintf("G%03d-m%06d", i/100, i), Lab: fmt.Sprintf("G%03d", i/100),
				RAMMB: 512, DiskGB: 74.5, IntIndex: 30.5, FPIndex: 33.1,
			})
		}
		for ck := 0; ck < chunks; ck++ {
			first := ck * perChunk
			d := &Dataset{
				Start: t0.Add(time.Duration(first) * period), End: t0.Add(time.Duration(first+perChunk) * period),
				Period: period, Machines: catalogue,
			}
			for it := first; it < first+perChunk; it++ {
				at := t0.Add(time.Duration(it) * period)
				d.Iterations = append(d.Iterations, Iteration{
					Iter: it, Start: at, End: at.Add(time.Minute), Attempted: hi - lo, Responded: hi - lo,
				})
			}
			for i, mi := range catalogue { // machine-major, time-sorted: frozen order
				for it := first; it < first+perChunk; it++ {
					s := mkSample(mi.ID, t0.Add(time.Duration(it)*period+time.Duration(i)*time.Millisecond), t0.Add(-time.Hour), time.Duration(it)*time.Minute, "")
					s.Iter, s.Lab = it, mi.Lab
					s.FreeDiskGB = 40 + float64((i+it)%97)/8
					s.SentBytes = uint64(it+1) * uint64(1000+i)
					d.Samples = append(d.Samples, s)
				}
			}
			out = append(out, d)
		}
	}
	return out
}

// samePerSample fails unless the allocation counts of the 12- and the
// 24-samples-per-machine run agree to within 1 %.
func samePerSample(t *testing.T, what string, twelve, twentyFour float64) {
	t.Helper()
	if diff := twentyFour - twelve; diff > twelve/100 || -diff > twelve/100 {
		t.Errorf("%s allocates per sample: %.0f allocations at 12 samples per machine, %.0f at 24", what, twelve, twentyFour)
	}
}

func TestMergeAllocsPerMachine(t *testing.T) {
	const machines = 4000
	run := func(perChunk int) float64 {
		names, raw := encodeSegments(t, fleetSegments(machines, 2, 3, perChunk))
		return testing.AllocsPerRun(3, func() {
			rs := make([]io.Reader, len(raw))
			for i, b := range raw {
				rs[i] = bytes.NewReader(b)
			}
			if err := MergeSegmentStreams(io.Discard, names, rs); err != nil {
				t.Fatal(err)
			}
		})
	}
	twelve, twentyFour := run(2), run(4)
	samePerSample(t, "merge", twelve, twentyFour)
	// The merge this one replaced spent ≈25 allocations per catalogued
	// machine at this layout (2.51 M for 100k machines): a state object
	// per (segment, machine), two map entries and an append per run, two
	// allocations per dictionary string. A quarter of that is the bar;
	// what remains is one string per catalogue entry per segment.
	if per := twentyFour / machines; per > 25.0/4 {
		t.Errorf("merge spends %.1f allocations per catalogued machine, want ≤ %.2f", per, 25.0/4)
	}
}

func TestWriteBinaryAllocsPerMachine(t *testing.T) {
	const machines = 4000
	run := func(perChunk int) float64 {
		d := fleetSegments(machines, 1, 1, perChunk)[0]
		return testing.AllocsPerRun(3, func() {
			if err := WriteBinary(io.Discard, d); err != nil {
				t.Fatal(err)
			}
		})
	}
	twelve, twentyFour := run(12), run(24)
	samePerSample(t, "WriteBinary", twelve, twentyFour)
	// The dictionary map's tables, the predictor slabs and the
	// reference index grow with the fleet, a chunk at a time.
	if per := twentyFour / machines; per > 0.1 {
		t.Errorf("WriteBinary spends %.2f allocations per machine, want ≤ 0.1", per)
	}
}

func TestCursorDrainAllocsPerMachine(t *testing.T) {
	const machines = 4000
	run := func(perChunk int) float64 {
		_, raw := encodeSegments(t, fleetSegments(machines, 1, 1, perChunk))
		return testing.AllocsPerRun(3, func() {
			c, err := NewBinaryCursor(bytes.NewReader(raw[0]))
			if err != nil {
				t.Fatal(err)
			}
			var s Sample
			for {
				ok, err := c.Next(&s)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
			}
		})
	}
	twelve, twentyFour := run(12), run(24)
	samePerSample(t, "cursor drain", twelve, twentyFour)
	if per := twentyFour / machines; per > 1.1 { // one dictionary string per machine
		t.Errorf("cursor drain spends %.2f allocations per machine, want ≈1", per)
	}
}
