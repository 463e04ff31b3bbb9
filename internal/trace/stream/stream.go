// Package stream provides out-of-core access to TBv1 traces: a chunked
// cursor that yields per-machine runs of samples without materialising
// a Dataset, and a deterministic parallel scheduler over those runs.
//
// The TBv1 format is per-machine delta-coded, and traces written from a
// frozen Dataset are machine-contiguous (machine-major, time-sorted
// within each machine) — exactly the order the in-memory analysis
// consumes samples in. The cursor exploits that: it decodes one bounded
// run at a time (one machine, at most MaxRunSamples samples), so the
// peak heap of a full-trace scan is a few run buffers plus the string
// dictionary, independent of trace length. analysis.AllStream builds
// the paper's tables and figures on top of this with single-pass
// accumulators; see DESIGN.md §10 for the equivalence guarantees.
package stream

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"time"

	"winlab/internal/trace"
)

// DefaultRunLimit bounds how many samples a single run may carry. A
// machine with more samples than this is delivered as several
// consecutive runs (same Machine, split at the limit), which keeps the
// per-run buffer — the unit of memory the scheduler recycles — small
// and predictable. 4096 samples ≈ 0.9 MB of Sample structs.
const DefaultRunLimit = 4096

// bufSize mirrors the trace package's shared buffered-IO window.
const bufSize = 1 << 20

// gzipMagic is the two-byte gzip member header (RFC 1952).
var gzipMagic = []byte{0x1f, 0x8b}

// Run is one contiguous chunk of a machine's samples, in stream order.
// The Samples slice is reused across NextRun calls (and recycled by
// Parallel) — consumers must finish with it before asking for the next
// run, and must copy anything they keep.
type Run struct {
	Machine string
	Samples []trace.Sample
}

// Cursor streams a TBv1 trace as bounded per-machine runs. It layers
// gzip sniffing and chunking over trace.BinaryCursor; header metadata
// (times, period, machine catalogue, iteration log) is available
// immediately after New/Open, before any sample has been decoded.
//
// A cursor is single-use and not safe for concurrent use (Parallel
// performs the decode on one goroutine and fans the runs out).
type Cursor struct {
	bc *trace.BinaryCursor

	// RunLimit caps samples per run; zero means DefaultRunLimit.
	// Adjust before the first NextRun call.
	RunLimit int

	closers []io.Closer // gzip reader(s) then file, closed in order

	pending    trace.Sample // first sample of the next run, if hasPending
	hasPending bool
	eof        bool
	err        error
}

// New opens a cursor over r. The content is sniffed like trace.ReadAny:
// a gzip stream is transparently decompressed and re-sniffed; anything
// that is not TBv1 after decompression is an error.
func New(r io.Reader) (*Cursor, error) {
	return newCursor(r, nil)
}

// Open opens a cursor over a trace file, plain or gzipped. Close
// releases the file handle.
func Open(path string) (*Cursor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	c, err := newCursor(f, []io.Closer{f})
	if err != nil {
		f.Close()
		return nil, err
	}
	return c, nil
}

func newCursor(r io.Reader, closers []io.Closer) (*Cursor, error) {
	br := bufio.NewReaderSize(r, bufSize)
	head, _ := br.Peek(2)
	if bytes.HasPrefix(head, gzipMagic) {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("stream: gzip: %w", err)
		}
		// The gzip reader is closed before the file: prepend it so the
		// closers run innermost-first.
		return newCursor(gz, append([]io.Closer{gz}, closers...))
	}
	bc, err := trace.NewBinaryCursor(br)
	if err != nil {
		return nil, err
	}
	return &Cursor{bc: bc, RunLimit: DefaultRunLimit, closers: closers}, nil
}

// Close releases any resources the cursor owns (decompressors, the
// file handle from Open). It is safe on a New-over-reader cursor.
func (c *Cursor) Close() error {
	var first error
	for _, cl := range c.closers {
		if err := cl.Close(); err != nil && first == nil {
			first = err
		}
	}
	c.closers = nil
	return first
}

// Start returns the trace start time from the header.
func (c *Cursor) Start() time.Time { return c.bc.Start() }

// End returns the trace end time from the header.
func (c *Cursor) End() time.Time { return c.bc.End() }

// Period returns the collection period from the header.
func (c *Cursor) Period() time.Duration { return c.bc.Period() }

// Machines returns the machine catalogue (read-only).
func (c *Cursor) Machines() []trace.MachineInfo { return c.bc.Machines() }

// Iterations returns the iteration log (read-only).
func (c *Cursor) Iterations() []trace.Iteration { return c.bc.Iterations() }

// DeclaredSamples returns the (untrusted) sample count from the header.
func (c *Cursor) DeclaredSamples() uint64 { return c.bc.DeclaredSamples() }

// Next decodes the next single sample, interleaving correctly with
// NextRun. It reports false with a nil error at a clean end of stream;
// decode errors are sticky.
func (c *Cursor) Next(s *trace.Sample) (bool, error) {
	if c.hasPending {
		*s, c.hasPending = c.pending, false
		return true, nil
	}
	return c.next(s)
}

func (c *Cursor) next(s *trace.Sample) (bool, error) {
	if c.err != nil {
		return false, c.err
	}
	if c.eof {
		return false, nil
	}
	ok, err := c.bc.Next(s)
	if err != nil {
		c.err = err
		return false, err
	}
	if !ok {
		c.eof = true
	}
	return ok, nil
}

// NextRun fills run with the next chunk: samples of one machine, in
// stream order, at most RunLimit of them. It reports false with a nil
// error when the stream is exhausted. A decode error mid-run discards
// the partial run and is returned (and sticky) — a truncated trace
// never yields silently partial analysis input.
func (c *Cursor) NextRun(run *Run) (bool, error) {
	limit := c.RunLimit
	if limit <= 0 {
		limit = DefaultRunLimit
	}
	// Samples decode straight into the run's buffer. Only the sample
	// that turns out to open the next machine's run is copied, into
	// pending — once per run, not twice per sample.
	buf := run.Samples[:0]
	if c.hasPending {
		buf = append(buf, c.pending)
		c.hasPending = false
	}
	for len(buf) < limit {
		if len(buf) < cap(buf) {
			buf = buf[:len(buf)+1]
		} else {
			buf = append(buf, trace.Sample{})
		}
		last := &buf[len(buf)-1]
		ok, err := c.next(last)
		if err != nil {
			run.Samples = buf[:0]
			return false, err
		}
		if !ok {
			buf = buf[:len(buf)-1]
			break
		}
		if last.Machine != buf[0].Machine {
			c.pending, c.hasPending = *last, true
			buf = buf[:len(buf)-1]
			break
		}
	}
	run.Samples = buf
	if len(buf) == 0 {
		return false, nil
	}
	run.Machine = buf[0].Machine
	return true, nil
}
