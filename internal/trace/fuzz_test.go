package trace

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// FuzzReadBinary hammers the TBv1 decoder with arbitrary bytes: malformed
// input (truncated streams, bad varints, wrong magic, lying counts,
// out-of-range dictionary references) must return an error, never panic
// or allocate absurdly; input that decodes must re-encode to a stream
// that decodes to the same dataset (Write∘Read fixed point).
//
// It is also differential. A cursor over a 16-byte bufio.Reader never
// has a whole sample in its window, so it decodes every sample field by
// field; the one-pass sample decode must agree with it on every input —
// the same dataset, or an error with the same text — and so must a read
// that sizes its sample array by the input's length.
func FuzzReadBinary(f *testing.F) {
	full := newDataset()
	full.Samples = append(full.Samples, FromSnapshot(9, snapshotFixture()))
	var seedBuf bytes.Buffer
	if err := WriteBinary(&seedBuf, full); err != nil {
		f.Fatal(err)
	}
	valid := seedBuf.Bytes()
	f.Add(append([]byte(nil), valid...))
	f.Add(valid[:len(valid)/2])                                          // truncated mid-stream
	f.Add(valid[:5])                                                     // header only
	f.Add([]byte{})                                                      // empty
	f.Add([]byte("WLTB"))                                                // magic, no version
	f.Add([]byte("NOPE\x01"))                                            // wrong magic
	f.Add([]byte("WLTB\x02"))                                            // future version
	f.Add(append([]byte("WLTB\x01"), bytes.Repeat([]byte{0x80}, 32)...)) // overlong varint
	f.Add(append([]byte("WLTB\x01"), 0, 0, 0, 0, 0, 0, 0,
		0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10)) // huge count
	f.Add(append(append([]byte(nil), valid...), 0xFF)) // trailing byte

	// Checker-violation seeds: traces that decode fine but carry
	// invariant-violating data (the trace doctor's bread and butter).
	// The codec must stay judgement-free — fidelity for bad data too —
	// and these seeds keep the fuzzer exploring the negative-delta and
	// duplicate-record encodings that clean traces rarely produce.
	addSeed := func(mutate func(d *Dataset)) {
		d := newDataset()
		mutate(d)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, d); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// counter regression:
	addSeed(func(d *Dataset) { d.Samples[1].Uptime = time.Minute })
	// SMART regression (negative delta):
	addSeed(func(d *Dataset) { d.Samples[2].PowerOnHours = -100 })
	// duplicate sample:
	addSeed(func(d *Dataset) { d.Samples = append(d.Samples, d.Samples[0]) })
	// iteration disorder:
	addSeed(func(d *Dataset) { d.Iterations[1].Start = d.Iterations[0].Start.Add(-time.Hour) })
	// sample out of bounds:
	addSeed(func(d *Dataset) { d.Samples[0].Time = d.End.Add(time.Hour) })

	for _, seed := range fastPathSeeds(f) {
		f.Add(seed)
	}
	// A ten-byte varint in a sample field: a sent-bytes delta of -2⁶³.
	addSeed(func(d *Dataset) { d.Samples[1].SentBytes = d.Samples[0].SentBytes + 1<<63 })

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ReadBinary(bytes.NewReader(data))
		checked, cerr := readBinary(bufio.NewReaderSize(bytes.NewReader(data), 16), -1)
		sameDecode(t, "field-by-field decode", d, err, checked, cerr)
		sized, serr := readBinary(bufio.NewReaderSize(bytes.NewReader(data), ioBufSize), int64(len(data)))
		sameDecode(t, "sized read", d, err, sized, serr)
		if err != nil {
			return
		}
		// A dataset that decoded must survive a re-encode/re-decode
		// cycle unchanged.
		var buf bytes.Buffer
		if err := WriteBinary(&buf, d); err != nil {
			t.Fatalf("re-encode of decoded dataset failed: %v", err)
		}
		d2, err := ReadBinary(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(d2.Samples) != len(d.Samples) || len(d2.Machines) != len(d.Machines) ||
			len(d2.Iterations) != len(d.Iterations) ||
			!d2.Start.Equal(d.Start) || !d2.End.Equal(d.End) || d2.Period != d.Period {
			t.Fatalf("Write∘Read not a fixed point:\n%+v\n%+v", d, d2)
		}
		for i := range d.Samples {
			a, b := &d.Samples[i], &d2.Samples[i]
			if a.Machine != b.Machine || !a.Time.Equal(b.Time) ||
				a.SentBytes != b.SentBytes || a.SessionUser != b.SessionUser {
				t.Fatalf("sample %d drifted: %+v vs %+v", i, a, b)
			}
		}
	})
}

// sameDecode fails unless a second decode of the same bytes gave the
// same dataset, or an error with the same text.
func sameDecode(t *testing.T, what string, want *Dataset, werr error, got *Dataset, err error) {
	t.Helper()
	if errString(err) != errString(werr) {
		t.Fatalf("%s: error %q, the decoder's %q", what, errString(err), errString(werr))
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: dataset differs from the decoder's", what)
	}
}

// longImage encodes a fixture of 300 samples, sessions included —
// enough for the one-pass sample decode to serve most of them — and
// returns it with the offset at which each sample from the 128th on
// starts.
func longImage(t testing.TB) (image []byte, starts []int) {
	d := newDataset()
	base := d.Samples
	d.Samples = nil
	for i := 0; i < 300; i++ {
		s := base[i%len(base)]
		s.Iter = i
		s.Time = s.Time.Add(time.Duration(i) * time.Hour)
		s.SentBytes = uint64(i) * 7919
		d.Samples = append(d.Samples, s)
	}
	encode := func(n int) []byte {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, variant(d, d.Machines, d.Samples[:n])); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// Images of 128 samples or more carry a two-byte count and differ
	// from the whole only in it, so the image of k samples ends where
	// sample k starts.
	starts = make([]int, len(d.Samples))
	for k := 128; k < len(d.Samples); k++ {
		starts[k] = len(encode(k))
	}
	return encode(len(d.Samples)), starts
}

// fastPathSeeds are longImage and hostile variants of it, each with
// something the one-pass sample decode must refuse and leave to the
// field-by-field path, placed where a whole sample's worth of window is
// in view: a lab or a session-user reference past the dictionary, a
// sample that interns its machine a second time. longImage itself has
// a sample that straddles the end of the first 4096-byte window (the
// magic's five bytes precede it).
func fastPathSeeds(t testing.TB) [][]byte {
	image, starts := longImage(t)
	const (
		edge = 5 + tbWindow
		dict = 5   // M1, L01 and M2 from the catalogue, "" and "u" from the samples
		at   = 198 // M1's sample, its session user ""
	)
	straddles := false
	for k := 128; k+1 < len(starts); k++ {
		straddles = straddles || starts[k] < edge && starts[k+1] > edge
	}
	start, end := starts[at], starts[at+1]
	if !straddles || image[start] != 0 || image[start+1] != 1 || image[end-1] != 3 {
		t.Fatal("fixture drifted: no straddling sample, or sample 198 is not M1's without a session")
	}
	with := func(off int, b ...byte) []byte {
		return append(append(append([]byte{}, image[:off]...), b...), image[off+1:]...)
	}
	return [][]byte{
		image,
		with(start+1, 100),             // lab reference out of range
		with(end-1, 100),               // session-user reference out of range
		with(start, dict, 2, 'M', '1'), // M1 interned again
	}
}

// mergeFuzzSeeds are segment pairs covering what the compactor has to
// tell apart: disjoint shards, time chunks of one shard, overlapping
// and unsorted segments, a truncated stream, a twice-interned machine.
// They seed FuzzMergeSegmentStreams and are committed under
// testdata/fuzz as its regression corpus.
func mergeFuzzSeeds(t testing.TB) [][2][]byte {
	enc := func(d *Dataset) []byte {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, d); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	shards := shardFixture(3, []string{"01-a", "01-b"}, []string{"02-a"})
	a, b := enc(shards[0]), enc(shards[1])
	early, late := SplitAt(shards[0], t0.Add(20*time.Minute))
	early.Machines, late.Machines = shards[0].Machines, shards[0].Machines
	swapped := variant(shards[0], shards[0].Machines, append([]Sample(nil), shards[0].Samples...))
	swapped.Samples[0], swapped.Samples[1] = swapped.Samples[1], swapped.Samples[0]
	sessions := variant(shards[1], shards[1].Machines, append([]Sample(nil), shards[1].Samples...))
	sessions.Samples[1].SessionUser, sessions.Samples[1].SessionStart = "u1", t0.Add(time.Minute)
	empty := enc(&Dataset{Start: t0, End: t0.Add(time.Hour), Period: 15 * time.Minute})
	// "01-a" interned a second time, as slot 4, for its second sample.
	// That sample starts where the one-sample image ends (the images
	// differ only in the one-byte count) with the machine reference 0.
	at := len(enc(variant(shards[0], shards[0].Machines, shards[0].Samples[:1])))
	if a[at] != 0 {
		t.Fatalf("fixture drifted: byte %d is %#x, want the machine reference 0", at, a[at])
	}
	twice := append(append(append([]byte{}, a[:at]...), 4, 4, '0', '1', '-', 'a'), a[at+1:]...)
	return [][2][]byte{
		{a, b}, {b, a}, {enc(early), enc(late)}, {a, a}, {enc(swapped), b},
		{a, enc(sessions)}, {a, empty}, {a[:len(a)/2], b}, {twice, b}, {nil, a},
	}
}

// FuzzMergeSegmentStreams feeds the compactor two arbitrary byte strings
// as segments. It must never panic, and must not allocate beyond a
// constant plus a multiple of the input (lying counts reserve nothing,
// as in TestReadBinaryAllocBomb). Against the oracle: whatever the old
// merge refused, this one refuses; what the old merge emitted, this one
// emits byte for byte — or refuses with an *OrderError, the check the
// old merge lacked; an overlap is reported with the same coordinates.
func FuzzMergeSegmentStreams(f *testing.F) {
	for _, seed := range mergeFuzzSeeds(f) {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		names := []string{"a", "b"}
		var want bytes.Buffer
		oerr := oracleMergeSegmentStreams(&want, names, []io.Reader{small(a), small(b)})

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var got bytes.Buffer
		err := MergeSegmentStreams(&got, names, []io.Reader{bytes.NewReader(a), bytes.NewReader(b)})
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(8<<20+128*(len(a)+len(b))); grew > limit {
			t.Fatalf("merge of %d input bytes allocated %d, limit %d", len(a)+len(b), grew, limit)
		}

		var ord *OrderError
		var ov, oov *OverlapError
		switch {
		case errors.As(err, &ord):
			// Unsorted input: the oracle's verdict on it is not a reference.
		case oerr == nil:
			if err != nil {
				t.Fatalf("the oracle merged this, the merge failed: %v", err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatal("merged bytes differ from the oracle's")
			}
		case err == nil:
			t.Fatalf("the oracle refused this (%v), the merge accepted it", oerr)
		case errors.As(oerr, &oov):
			if !errors.As(err, &ov) || *ov != *oov {
				t.Fatalf("overlap %v, oracle %v", err, oerr)
			}
		}
	})
}
