package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

// Differential tests: the append encoder, the windowed ref-indexed cursor
// and the run-at-a-time merge against the implementations they replaced
// (codec_oracle_test.go, merge_oracle_test.go), over seeded random
// segment layouts.

// randomLayout builds the segment datasets of one sharded, time-chunked
// run: 1–8 shards × 1–5 chunks of 1–4 iterations, 0–4 machines per shard
// (so empty and single-machine segments occur), machines that miss
// probes, sessions that stay open across chunk boundaries, sometimes a
// lifetime-stamped (TBv2) catalogue in shuffled order, sometimes a
// sampled machine the catalogue does not list. Every dataset is frozen.
// Segments come back shard-major, chunk-minor.
func randomLayout(r *rand.Rand) []*Dataset {
	const period = 15 * time.Minute
	shards, chunks, perChunk := 1+r.Intn(8), 1+r.Intn(5), 1+r.Intn(4)
	lifetimes := r.Intn(3) == 0
	var out []*Dataset
	for sh := 0; sh < shards; sh++ {
		var catalogue []MachineInfo
		var ids []string
		for j, n := 0, r.Intn(5); j < n; j++ {
			id := fmt.Sprintf("%02d-%c", sh, 'a'+j)
			ids = append(ids, id)
			mi := MachineInfo{ID: id, Lab: fmt.Sprintf("L%02d", sh/2), RAMMB: 256 << r.Intn(3), DiskGB: 74.5, IntIndex: 30.5, FPIndex: 33.1}
			if lifetimes && r.Intn(2) == 0 {
				mi.JoinIter, mi.LeaveIter = r.Intn(3), 0
				if r.Intn(2) == 0 {
					mi.LeaveIter = mi.JoinIter + 1 + r.Intn(chunks*perChunk)
				}
			}
			catalogue = append(catalogue, mi)
		}
		r.Shuffle(len(catalogue), func(a, b int) { catalogue[a], catalogue[b] = catalogue[b], catalogue[a] })
		if r.Intn(5) == 0 {
			ids = append(ids, fmt.Sprintf("%02d-zz", sh)) // sampled, never catalogued
		}

		type live struct {
			boot      time.Time
			user      string
			login     time.Time
			sent      uint64
			cycles    int64
			freeDisk  float64
			cpuIdleNs int64
		}
		state := make([]live, len(ids))
		for i := range state {
			state[i] = live{boot: t0.Add(-time.Duration(r.Intn(72)) * time.Hour), freeDisk: 40, cycles: int64(r.Intn(500))}
		}
		for ck := 0; ck < chunks; ck++ {
			first := ck * perChunk
			d := &Dataset{
				Start: t0.Add(time.Duration(first) * period), End: t0.Add(time.Duration(first+perChunk) * period),
				Period: period, Machines: catalogue,
			}
			for it := first; it < first+perChunk; it++ {
				at := t0.Add(time.Duration(it) * period)
				rec := Iteration{Iter: it, Start: at, End: at.Add(2 * time.Minute), Attempted: len(ids)}
				for i, id := range ids {
					st := &state[i]
					switch r.Intn(6) { // a session opens, closes, or carries on
					case 0:
						st.user, st.login = fmt.Sprintf("u%d", r.Intn(4)), at.Add(-time.Duration(r.Intn(600))*time.Second)
					case 1:
						st.user = ""
					}
					if r.Intn(8) == 0 { // reboot
						st.boot, st.cycles, st.cpuIdleNs = at.Add(-time.Minute), st.cycles+1, 0
					}
					st.sent += uint64(r.Intn(1 << 20))
					st.cpuIdleNs += int64(r.Intn(int(period)))
					st.freeDisk += float64(r.Intn(3)-1) / 8
					if r.Intn(5) == 0 {
						continue // no answer this iteration
					}
					rec.Responded++
					when := at.Add(time.Duration(i)*time.Second + time.Duration(r.Intn(1000))*time.Millisecond)
					s := Sample{
						Iter: it, Time: when, Machine: id, Lab: fmt.Sprintf("L%02d", sh/2),
						BootTime: st.boot, Uptime: when.Sub(st.boot), CPUIdle: time.Duration(st.cpuIdleNs),
						MemLoadPct: r.Intn(101), SwapLoadPct: r.Intn(101),
						DiskGB: 74.5, FreeDiskGB: st.freeDisk,
						PowerCycles: st.cycles, PowerOnHours: int64(when.Sub(st.boot) / time.Hour),
						SentBytes: st.sent, RecvBytes: st.sent / 3,
					}
					if st.user != "" {
						s.SessionUser, s.SessionStart = st.user, st.login
					}
					d.Samples = append(d.Samples, s)
				}
				d.Iterations = append(d.Iterations, rec)
			}
			d.SortSamples()
			out = append(out, d)
		}
	}
	return out
}

func encodeSegments(t testing.TB, segs []*Dataset) (names []string, raw [][]byte) {
	t.Helper()
	for i, d := range segs {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, d); err != nil {
			t.Fatal(err)
		}
		names = append(names, fmt.Sprintf("seg-%02d", i))
		raw = append(raw, buf.Bytes())
	}
	return names, raw
}

// small wraps b in a bufio.Reader far smaller than the default IO
// window: cursors use a caller's reader as is, so the sweeps below do
// not allocate a megabyte per segment per case — and the decoder's
// peeked window is exercised at a size samples straddle constantly.
func small(b []byte) *bufio.Reader { return bufio.NewReaderSize(bytes.NewReader(b), 128) }

func byteReaders(raw [][]byte) []io.Reader {
	rs := make([]io.Reader, len(raw))
	for i, b := range raw {
		rs[i] = small(b)
	}
	return rs
}

// mergeBoth runs the live merge and the oracle over the same segments.
func mergeBoth(names []string, raw [][]byte) (got, want []byte, err, oerr error) {
	var g, w bytes.Buffer
	err = MergeSegmentStreams(&g, names, byteReaders(raw))
	oerr = oracleMergeSegmentStreams(&w, names, byteReaders(raw))
	return g.Bytes(), w.Bytes(), err, oerr
}

// oracleReadBinary drains the oracle cursor into a dataset, as the old
// readBinary did.
func oracleReadBinary(r io.Reader) (*Dataset, error) {
	c, err := newOracleCursorReader(r)
	if err != nil {
		return nil, err
	}
	ds := &Dataset{Start: c.start, End: c.end, Period: c.period, Machines: c.machines, Iterations: c.iterations}
	var s Sample
	for {
		ok, err := c.Next(&s)
		if err != nil {
			return nil, err
		}
		if !ok {
			return ds, nil
		}
		ds.Samples = append(ds.Samples, s)
	}
}

// variant returns a dataset with d's header and iteration log but its
// own catalogue and samples (Dataset carries a mutex, so no struct copy).
func variant(d *Dataset, machines []MachineInfo, samples []Sample) *Dataset {
	return &Dataset{Start: d.Start, End: d.End, Period: d.Period, Machines: machines, Iterations: d.Iterations, Samples: samples}
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestCodecMatchesOracle: on every dataset — frozen or shuffled — the
// append encoder writes the oracle's bytes, and the windowed cursor
// decodes them to the oracle's samples through well-fed, byte-starved
// and tiny-buffered readers alike; cut anywhere, both decoders fail with
// the same message.
func TestCodecMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		r := rand.New(rand.NewSource(seed))
		for i, d := range randomLayout(r) {
			if i%3 == 2 { // the codec takes any sample order
				r.Shuffle(len(d.Samples), func(a, b int) { d.Samples[a], d.Samples[b] = d.Samples[b], d.Samples[a] })
			}
			var got, want bytes.Buffer
			if err := WriteBinary(&got, d); err != nil {
				t.Fatal(err)
			}
			if err := oracleWriteBinary(&want, d); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("seed %d segment %d: encoder differs from oracle", seed, i)
			}
			ref, err := oracleReadBinary(small(want.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			for name, rd := range map[string]io.Reader{
				"plain":    bytes.NewReader(want.Bytes()),
				"one-byte": iotest.OneByteReader(bytes.NewReader(want.Bytes())),
				"half":     iotest.HalfReader(bytes.NewReader(want.Bytes())),
				"data-err": iotest.DataErrReader(bytes.NewReader(want.Bytes())),
				// A caller-supplied bufio.Reader is used as is: a 16-byte window.
				"bufio-16": bufio.NewReaderSize(bytes.NewReader(want.Bytes()), 16),
			} {
				var ds *Dataset
				if br, ok := rd.(*bufio.Reader); ok {
					ds, err = readBinary(br, int64(want.Len()))
				} else {
					ds, err = ReadBinary(rd)
				}
				if err != nil {
					t.Fatalf("seed %d segment %d via %s: %v", seed, i, name, err)
				}
				if !reflect.DeepEqual(ds, ref) {
					t.Fatalf("seed %d segment %d via %s: decoded dataset differs from oracle", seed, i, name)
				}
			}
			if seed > 4 {
				continue
			}
			for cut := 0; cut < want.Len(); cut++ {
				_, err := readBinary(small(want.Bytes()[:cut]), int64(cut))
				_, oerr := oracleReadBinary(small(want.Bytes()[:cut]))
				if err == nil || errString(err) != errString(oerr) {
					t.Fatalf("seed %d segment %d cut at %d: %v, oracle %v", seed, i, cut, err, oerr)
				}
			}
		}
	}
}

// TestCursorKeepsStatePerReference: predictor state belongs to the
// dictionary slot. A hostile stream that interns one string twice gets
// two predictors (the oracle, keyed by string, shared one); no writer
// produces such a stream, and the merge refuses it as unsorted.
func TestCursorKeepsStatePerReference(t *testing.T) {
	d := &Dataset{Start: t0, End: t0.Add(time.Hour), Period: 15 * time.Minute}
	d.Samples = []Sample{mkSample("m", t0.Add(time.Minute), t0, 0, ""), mkSample("m", t0.Add(2*time.Minute), t0, 0, "")}
	var first, both bytes.Buffer
	if err := WriteBinary(&first, variant(d, nil, d.Samples[:1])); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&both, d); err != nil {
		t.Fatal(err)
	}
	// The two images differ only in the one-byte sample count, so the
	// second sample starts where the first image ends. Rewrite its
	// machine reference (0, one byte) as a fresh dictionary entry
	// spelling "m" again: ref 3, length 1, 'm' ("m", "L01" and "" hold
	// slots 0–2).
	raw, at := both.Bytes(), first.Len()
	if raw[at] != 0 {
		t.Fatalf("fixture drifted: byte %d is %#x, want the machine reference 0", at, raw[at])
	}
	hostile := append(append(append([]byte{}, raw[:at]...), 3, 1, 'm'), raw[at+1:]...)
	got, err := ReadBinary(bytes.NewReader(hostile))
	if err != nil {
		t.Fatal(err)
	}
	if got.Samples[1].Machine != "m" || got.Samples[1].Time.Equal(d.Samples[1].Time) {
		t.Errorf("second slot shared the first slot's predictor: %+v", got.Samples[1])
	}
	err = MergeSegmentStreams(io.Discard, nil, []io.Reader{bytes.NewReader(hostile)})
	var oe *OrderError
	if !errors.As(err, &oe) {
		t.Errorf("merge of a twice-interned machine: %v, want *OrderError", err)
	}
}

// TestMergeMatchesOracle: over seeded random layouts the merge emits the
// oracle's bytes, from memory and from (sometimes gzipped) files.
func TestMergeMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 120; seed++ {
		r := rand.New(rand.NewSource(seed))
		segs := randomLayout(r)
		names, raw := encodeSegments(t, segs)
		got, want, err, oerr := mergeBoth(names, raw)
		if err != nil || oerr != nil {
			t.Fatalf("seed %d: merge %v, oracle %v", seed, err, oerr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d (%d segments): merged bytes differ from oracle", seed, len(segs))
		}
		if seed%10 != 0 {
			continue
		}
		dir := t.TempDir()
		m := &Manifest{Start: segs[0].Start, End: segs[len(segs)-1].End, PeriodNS: segs[0].Period}
		for i, d := range segs {
			name := fmt.Sprintf("s-%03d.tb", i)
			if r.Intn(2) == 0 {
				name += ".gz"
			}
			if err := WriteFileFormat(filepath.Join(dir, name), d, FormatTB); err != nil {
				t.Fatal(err)
			}
			m.Segments = append(m.Segments, segmentInfo(name, i, d))
		}
		var viaFiles bytes.Buffer
		if err := MergeSegments(&viaFiles, m, dir); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(viaFiles.Bytes(), want) {
			t.Fatalf("seed %d: file merge differs from oracle", seed)
		}
	}
}

// TestMergeErrorsMatchOracle: on bad inputs derived from the random
// layouts both merges fail the same way — equal *OverlapError
// coordinates, equal catalogue-conflict and truncation messages — except
// that a contiguity breach, which the oracle reported as a plain error,
// is now an *OrderError.
func TestMergeErrorsMatchOracle(t *testing.T) {
	ran := map[string]int{}
	for seed := int64(1); seed <= 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		segs := randomLayout(r)
		names, raw := encodeSegments(t, segs)
		busy := -1 // a segment with samples
		for i, d := range segs {
			if len(d.Samples) > 0 {
				busy = i
			}
		}
		if busy < 0 {
			continue
		}

		// Overlap: one segment twice.
		_, _, err, oerr := mergeBoth(append(names, "again"), append(raw, raw[busy]))
		var oe, ooe *OverlapError
		if !errors.As(err, &oe) || !errors.As(oerr, &ooe) || *oe != *ooe {
			t.Fatalf("seed %d overlap: %v, oracle %v", seed, err, oerr)
		}
		ran["overlap"]++

		// Conflicting catalogue: the same machine, other metadata.
		if d := segs[busy]; len(d.Machines) > 0 {
			twin := variant(d, append([]MachineInfo(nil), d.Machines...), d.Samples)
			twin.Machines[r.Intn(len(twin.Machines))].RAMMB += 64
			var buf bytes.Buffer
			if err := WriteBinary(&buf, twin); err != nil {
				t.Fatal(err)
			}
			_, _, err, oerr := mergeBoth(append(names, "twin"), append(raw, buf.Bytes()))
			if err == nil || !strings.Contains(err.Error(), "conflicting metadata") || err.Error() != errString(oerr) {
				t.Fatalf("seed %d conflict: %v, oracle %v", seed, err, oerr)
			}
			ran["conflict"]++
		}

		// Non-contiguous: the first machine's last sample moves to the end.
		if d := segs[busy]; d.Samples[0].Machine != d.Samples[len(d.Samples)-1].Machine {
			torn := variant(d, d.Machines, append(append([]Sample(nil), d.Samples[1:]...), d.Samples[0]))
			var buf bytes.Buffer
			if err := WriteBinary(&buf, torn); err != nil {
				t.Fatal(err)
			}
			bad := append([][]byte(nil), raw...)
			bad[busy] = buf.Bytes()
			_, _, err, oerr := mergeBoth(names, bad)
			var ord *OrderError
			if !errors.As(err, &ord) || ord.Segment != names[busy] || ord.Machine != d.Samples[0].Machine {
				t.Fatalf("seed %d non-contiguous: %v", seed, err)
			}
			// The oracle sees it only when the torn machine had another
			// sample to reappear after; a lone moved sample merges silently.
			if oerr != nil && !strings.Contains(oerr.Error(), "not machine-contiguous") {
				t.Fatalf("seed %d non-contiguous: oracle %v", seed, oerr)
			}
			ran["non-contiguous"]++
		}

		// Truncated: cut the busy segment; same message from both.
		if seed <= 12 {
			for cut := 0; cut < len(raw[busy]); cut += 1 + r.Intn(5) {
				bad := append([][]byte(nil), raw...)
				bad[busy] = raw[busy][:cut]
				_, _, err, oerr := mergeBoth(names, bad)
				if err == nil || err.Error() != errString(oerr) {
					t.Fatalf("seed %d cut %d: %v, oracle %v", seed, cut, err, oerr)
				}
			}
			ran["truncated"]++
		}
	}
	for _, kind := range []string{"overlap", "conflict", "non-contiguous", "truncated"} {
		if ran[kind] < 5 {
			t.Errorf("only %d %s cases ran", ran[kind], kind)
		}
	}
}

// TestMergeInterleavedSegments: two segments alternating samples of the
// same machines. When their iteration spans intersect, each reported
// span is the segment's whole claimed range, not the first collision.
// When the spans are disjoint but the times still alternate — or tie —
// the merge succeeds and the drain hands over at every sample: the
// output is the oracle's (machine, time, segment index) order exactly.
func TestMergeInterleavedSegments(t *testing.T) {
	whole := shardFixture(6, []string{"01-a", "01-b"})[0]
	split := func(disjoint, tie bool) [][]byte {
		even, odd := variant(whole, whole.Machines, nil), variant(whole, whole.Machines, nil)
		for _, s := range whole.Samples {
			half := s.Iter / 2
			if s.Iter%2 == 0 {
				if disjoint {
					s.Iter = half // 0, 1, 2
				}
				even.Samples = append(even.Samples, s)
				continue
			}
			if disjoint {
				s.Iter = 3 + half // 3, 4, 5
			}
			if tie {
				s.Time = s.Time.Add(-whole.Period) // the even sample's instant
			}
			odd.Samples = append(odd.Samples, s)
		}
		_, raw := encodeSegments(t, []*Dataset{even, odd})
		return raw
	}
	names := []string{"even", "odd"}

	_, _, err, oerr := mergeBoth(names, split(false, false))
	var oe, ooe *OverlapError
	if !errors.As(err, &oe) || !errors.As(oerr, &ooe) || *oe != *ooe {
		t.Fatalf("interleaved: %v, oracle %v", err, oerr)
	}
	if oe.Machine != "01-a" || oe.LoA != 0 || oe.HiA != 4 || oe.LoB != 1 || oe.HiB != 5 {
		t.Errorf("interleaved spans: %+v", oe)
	}

	for _, tie := range []bool{false, true} {
		got, want, err, oerr := mergeBoth(names, split(true, tie))
		if err != nil || oerr != nil {
			t.Fatalf("tie=%v: merge %v, oracle %v", tie, err, oerr)
		}
		if len(got) == 0 || !bytes.Equal(got, want) {
			t.Errorf("tie=%v: interleaved drain order differs from oracle", tie)
		}
		d, err := ReadBinary(bytes.NewReader(got))
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range d.Samples[:6] { // 01-a: even, odd, even, …
			if wantOdd := i%2 == 1; (s.Iter >= 3) != wantOdd {
				t.Fatalf("tie=%v: sample %d of 01-a came from the wrong segment (iter %d)", tie, i, s.Iter)
			}
		}
	}
}

// TestMergeSegmentsUnsorted: a segment whose runs are out of machine
// order, or whose samples go back in time inside a run, is refused with
// an *OrderError — the oracle merged both silently into a trace that was
// not in canonical order.
func TestMergeSegmentsUnsorted(t *testing.T) {
	fix := shardFixture(2, []string{"01-a", "01-b"}, []string{"02-a", "02-b"})
	encode := func(d *Dataset, reorder func(s []Sample)) []byte {
		cp := variant(d, d.Machines, append([]Sample(nil), d.Samples...))
		reorder(cp.Samples)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, cp); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	good := encode(fix[1], func([]Sample) {})
	for _, tc := range []struct {
		name    string
		reorder func(s []Sample)
		want    OrderError
	}{
		{"runs out of machine order", // 01-b's run, then 01-a's
			func(s []Sample) { s[0], s[1], s[2], s[3] = s[2], s[3], s[0], s[1] },
			OrderError{Segment: "bad", Machine: "01-a", PrevMachine: "01-b", Iter: 0}},
		{"time goes backwards in a run", // 01-a's two samples swapped
			func(s []Sample) { s[0], s[1] = s[1], s[0] },
			OrderError{Segment: "bad", Machine: "01-a", PrevMachine: "01-a", Iter: 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw := [][]byte{encode(fix[0], tc.reorder), good}
			err := MergeSegmentStreams(io.Discard, []string{"bad", "good"}, byteReaders(raw))
			var oe *OrderError
			if !errors.As(err, &oe) {
				t.Fatalf("want *OrderError, got %v", err)
			}
			if *oe != tc.want {
				t.Errorf("coordinates %+v, want %+v", *oe, tc.want)
			}
			if !strings.Contains(err.Error(), "bad") || !strings.Contains(err.Error(), "01-a") {
				t.Errorf("error lacks coordinates: %v", err)
			}
			if oerr := oracleMergeSegmentStreams(io.Discard, nil, byteReaders(raw)); oerr != nil {
				t.Errorf("the oracle is expected to miss this: %v", oerr)
			}
		})
	}
}
