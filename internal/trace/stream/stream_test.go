package stream_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"testing/iotest"

	"winlab/internal/trace"
	"winlab/internal/trace/check"
	"winlab/internal/trace/stream"
)

// fixtureTB returns the canonical (frozen, machine-contiguous) TBv1
// encoding of the checker's clean fixture, plus the frozen dataset.
func fixtureTB(t *testing.T) ([]byte, *trace.Dataset) {
	t.Helper()
	d := check.CleanFixture()
	d.Freeze()
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), d
}

func drain(t *testing.T, c *stream.Cursor) []trace.Sample {
	t.Helper()
	var out []trace.Sample
	var s trace.Sample
	for {
		ok, err := c.Next(&s)
		if err != nil {
			t.Fatalf("Next after %d samples: %v", len(out), err)
		}
		if !ok {
			return out
		}
		out = append(out, s)
	}
}

// TestCursorMatchesReadBinary: the streaming decode must equal the
// batch decode sample for sample — including when the underlying
// reader delivers one byte at a time, so every varint, string and
// float straddles a read boundary at some point.
func TestCursorMatchesReadBinary(t *testing.T) {
	tb, want := fixtureTB(t)
	for _, tc := range []struct {
		name string
		c    func() (*stream.Cursor, error)
	}{
		{"plain", func() (*stream.Cursor, error) { return stream.New(bytes.NewReader(tb)) }},
		{"one-byte-reads", func() (*stream.Cursor, error) {
			return stream.New(iotest.OneByteReader(bytes.NewReader(tb)))
		}},
		{"half-reads", func() (*stream.Cursor, error) {
			return stream.New(iotest.HalfReader(bytes.NewReader(tb)))
		}},
		{"data-err-reader", func() (*stream.Cursor, error) {
			return stream.New(iotest.DataErrReader(bytes.NewReader(tb)))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := tc.c()
			if err != nil {
				t.Fatal(err)
			}
			if !c.Start().Equal(want.Start) || !c.End().Equal(want.End) || c.Period() != want.Period {
				t.Error("header metadata diverges")
			}
			got := drain(t, c)
			if len(got) != len(want.Samples) {
				t.Fatalf("%d samples, want %d", len(got), len(want.Samples))
			}
			for i := range got {
				if fmt.Sprintf("%+v", got[i]) != fmt.Sprintf("%+v", want.Samples[i]) {
					t.Fatalf("sample %d diverges:\n%+v\n%+v", i, got[i], want.Samples[i])
				}
			}
		})
	}
}

// TestNextRunBoundaries: for every RunLimit, runs must concatenate to
// the full stream, never mix machines, and only split a machine when
// the previous run hit the limit exactly.
func TestNextRunBoundaries(t *testing.T) {
	tb, want := fixtureTB(t)
	for _, limit := range []int{1, 2, 3, 5, 1 << 20} {
		t.Run(fmt.Sprintf("limit=%d", limit), func(t *testing.T) {
			c, err := stream.New(iotest.OneByteReader(bytes.NewReader(tb)))
			if err != nil {
				t.Fatal(err)
			}
			c.RunLimit = limit
			var got []trace.Sample
			var run stream.Run
			prevMachine, prevLen := "", 0
			for {
				ok, err := c.NextRun(&run)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				if len(run.Samples) == 0 || len(run.Samples) > limit {
					t.Fatalf("run size %d outside (0, %d]", len(run.Samples), limit)
				}
				for i := range run.Samples {
					if run.Samples[i].Machine != run.Machine {
						t.Fatalf("run for %q contains sample of %q", run.Machine, run.Samples[i].Machine)
					}
				}
				if run.Machine == prevMachine && prevLen != limit {
					t.Fatalf("machine %q split without hitting the limit (prev run %d < %d)",
						run.Machine, prevLen, limit)
				}
				prevMachine, prevLen = run.Machine, len(run.Samples)
				got = append(got, run.Samples...) // copies: the buffer is reused
			}
			if len(got) != len(want.Samples) {
				t.Fatalf("runs concatenate to %d samples, want %d", len(got), len(want.Samples))
			}
			for i := range got {
				if got[i].Machine != want.Samples[i].Machine || !got[i].Time.Equal(want.Samples[i].Time) {
					t.Fatalf("sample %d out of order after chunking", i)
				}
			}
		})
	}
}

// TestMixedNextAndNextRun: interleaving the two pull styles must not
// lose or duplicate the pending sample.
func TestMixedNextAndNextRun(t *testing.T) {
	tb, want := fixtureTB(t)
	c, err := stream.New(bytes.NewReader(tb))
	if err != nil {
		t.Fatal(err)
	}
	c.RunLimit = 2
	var got []trace.Sample
	var s trace.Sample
	var run stream.Run
	for i := 0; ; i++ {
		if i%2 == 0 {
			ok, err := c.Next(&s)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			got = append(got, s)
		} else {
			ok, err := c.NextRun(&run)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			got = append(got, run.Samples...)
		}
	}
	if len(got) != len(want.Samples) {
		t.Fatalf("%d samples, want %d", len(got), len(want.Samples))
	}
	for i := range got {
		if got[i].Machine != want.Samples[i].Machine || got[i].Iter != want.Samples[i].Iter {
			t.Fatalf("sample %d diverges after mixed pulls", i)
		}
	}
}

// TestOpenSniffsGzip: Open must handle plain and gzipped files
// identically, and reject a file that is not TBv1.
func TestOpenSniffsGzip(t *testing.T) {
	_, d := fixtureTB(t)
	dir := t.TempDir()
	plain := filepath.Join(dir, "t.tb")
	zipped := filepath.Join(dir, "t.tb.gz")
	for _, p := range []string{plain, zipped} {
		if err := trace.WriteFile(p, d); err != nil {
			t.Fatal(err)
		}
	}
	csv := filepath.Join(dir, "t.csv")
	if err := os.WriteFile(csv, []byte("H,winlab-trace-1,2003-10-06T08:00:00Z,2003-10-07T08:00:00Z,900\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var first []trace.Sample
	for _, p := range []string{plain, zipped} {
		c, err := stream.Open(p)
		if err != nil {
			t.Fatalf("Open(%s): %v", p, err)
		}
		got := drain(t, c)
		if err := c.Close(); err != nil {
			t.Errorf("Close(%s): %v", p, err)
		}
		if first == nil {
			first = got
			continue
		}
		if len(got) != len(first) {
			t.Fatalf("gzip path decoded %d samples, plain %d", len(got), len(first))
		}
	}
	if _, err := stream.Open(csv); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Errorf("Open(csv) = %v, want a bad-magic error", err)
	}
}

// TestCursorTruncatedTrace: truncation mid-stream must surface as a
// sticky error, from both Next and NextRun, with no partial run leaked.
func TestCursorTruncatedTrace(t *testing.T) {
	tb, _ := fixtureTB(t)
	c, err := stream.New(bytes.NewReader(tb[:len(tb)-3]))
	if err != nil {
		t.Fatal(err)
	}
	var run stream.Run
	var last error
	for {
		ok, err := c.NextRun(&run)
		if err != nil {
			last = err
			break
		}
		if !ok {
			t.Fatal("truncated trace ended cleanly")
		}
	}
	if last == nil {
		t.Fatal("no error from truncated trace")
	}
	var s trace.Sample
	if _, err := c.Next(&s); err == nil {
		t.Error("error did not stick across Next")
	}
}

// TestCheckStreamOverCursor wires the incremental checker to the
// cursor: the clean fixture must stream violation-free, and each
// serialisable corruption the streaming checker covers must still be
// caught after a freeze → TBv1 → cursor round trip.
func TestCheckStreamOverCursor(t *testing.T) {
	streamable := map[check.Kind]bool{
		check.KindCounterRegression: true,
		check.KindSMARTRegression:   true,
		check.KindSessionState:      true,
	}
	// CleanFixture/CorruptedFixtures build fresh datasets per call, so
	// freezing in place is safe.
	run := func(t *testing.T, d *trace.Dataset) *check.Report {
		t.Helper()
		d.Freeze()
		var buf bytes.Buffer
		if err := trace.WriteBinary(&buf, d); err != nil {
			t.Fatal(err)
		}
		c, err := stream.New(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		st := check.NewStream(c.Start(), c.End(), c.Period(), check.Options{})
		var s trace.Sample
		for {
			ok, err := c.Next(&s)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			st.Sample(&s)
		}
		for _, it := range c.Iterations() {
			st.Iteration(it)
		}
		return st.Report()
	}

	if r := run(t, check.CleanFixture()); !r.OK() {
		t.Fatalf("clean fixture via cursor: %d violations, first: %v", r.Total, r.Violations[0])
	}
	for _, fx := range check.CorruptedFixtures() {
		if !fx.Serializable || !streamable[fx.Kind] {
			continue
		}
		t.Run(fx.Name, func(t *testing.T) {
			r := run(t, fx.Dataset)
			for _, v := range r.Violations {
				if v.Kind == fx.Kind {
					return
				}
			}
			t.Errorf("streamed checker missed %s (report: %d violations)", fx.Kind, r.Total)
		})
	}
}

// TestParallelDeterministicPartition: the machine→worker assignment
// and per-worker run order must be identical across repeated drains.
func TestParallelDeterministicPartition(t *testing.T) {
	tb, _ := fixtureTB(t)
	snapshot := func() [][]string {
		c, err := stream.New(bytes.NewReader(tb))
		if err != nil {
			t.Fatal(err)
		}
		c.RunLimit = 2
		got := make([][]string, 3)
		var mu sync.Mutex
		err = stream.Parallel(c, 3, func(w int, run *stream.Run) error {
			mu.Lock()
			got[w] = append(got[w], fmt.Sprintf("%s/%d", run.Machine, len(run.Samples)))
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	a, b := snapshot(), snapshot()
	for w := range a {
		if strings.Join(a[w], ",") != strings.Join(b[w], ",") {
			t.Fatalf("worker %d saw different runs across drains:\n%v\n%v", w, a[w], b[w])
		}
	}
}

// TestParallelErrorPropagation: fn errors and decode errors must both
// abort the drain and reach the caller.
func TestParallelErrorPropagation(t *testing.T) {
	tb, _ := fixtureTB(t)

	c, err := stream.New(bytes.NewReader(tb))
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if got := stream.Parallel(c, 4, func(w int, run *stream.Run) error { return boom }); !errors.Is(got, boom) {
		t.Errorf("fn error = %v, want %v", got, boom)
	}

	c2, err := stream.New(bytes.NewReader(tb[:len(tb)-2]))
	if err != nil {
		t.Fatal(err)
	}
	if got := stream.Parallel(c2, 4, func(w int, run *stream.Run) error { return nil }); got == nil {
		t.Error("decode error swallowed by Parallel")
	}

	// One worker too.
	c3, err := stream.New(bytes.NewReader(tb[:len(tb)-2]))
	if err != nil {
		t.Fatal(err)
	}
	if got := stream.Parallel(c3, 1, func(w int, run *stream.Run) error { return nil }); got == nil {
		t.Error("decode error swallowed by one-worker Parallel")
	}
}

// TestNewRejectsGarbage: wrong magic and raw gzip of garbage must fail
// at construction, not at first Next.
func TestNewRejectsGarbage(t *testing.T) {
	if _, err := stream.New(bytes.NewReader([]byte("NOPE\x01junk"))); err == nil {
		t.Error("wrong magic accepted")
	}
	if _, err := stream.New(bytes.NewReader([]byte{0x1f, 0x8b, 0xff, 0xff})); err == nil {
		t.Error("corrupt gzip accepted")
	}
	if _, err := stream.New(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
}
