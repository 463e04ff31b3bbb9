package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"
)

// The TBv1 codec as it stood before the append encoder and the
// ref-indexed cursor replaced its per-sample loops: the bufio-backed
// writer (one Write per varint, string-keyed dictionary lookups per
// field) and the ReadByte-per-byte reader with a string-keyed predictor
// map. Moved here verbatim (identifiers prefixed "oracle") as the
// differential reference: TestCodecMatchesOracle and the merge
// differential require the live codec to produce and accept exactly the
// same bytes.

type oracleTBWriter struct {
	w    *bufio.Writer
	tmp  [binary.MaxVarintLen64]byte
	dict map[string]uint64
}

func (e *oracleTBWriter) uvarint(v uint64) {
	n := binary.PutUvarint(e.tmp[:], v)
	e.w.Write(e.tmp[:n])
}

func (e *oracleTBWriter) varint(v int64) {
	n := binary.PutVarint(e.tmp[:], v)
	e.w.Write(e.tmp[:n])
}

func (e *oracleTBWriter) f64(v float64) {
	binary.LittleEndian.PutUint64(e.tmp[:8], math.Float64bits(v))
	e.w.Write(e.tmp[:8])
}

// str writes a dictionary reference, introducing the string on first use.
func (e *oracleTBWriter) str(s string) {
	if idx, ok := e.dict[s]; ok {
		e.uvarint(idx)
		return
	}
	idx := uint64(len(e.dict))
	e.dict[s] = idx
	e.uvarint(idx)
	e.uvarint(uint64(len(s)))
	e.w.WriteString(s)
}

// time writes an absolute instant relative to a predictor, advancing it.
func (e *oracleTBWriter) time(t time.Time, sec, ns *int64) {
	ts, tn := t.Unix(), int64(t.Nanosecond())
	e.varint(ts - *sec)
	e.varint(tn - *ns)
	*sec, *ns = ts, tn
}

// oracleEncoder writes a TBv1 stream incrementally: the header, machine
// catalogue, iteration log and declared sample count go out eagerly at
// construction, then each writeSample appends one delta-coded sample.
// oracleWriteBinary is its batch client and the segment compactor
// (MergeSegments) streams merged samples through it, so there is exactly
// one TBv1 encode path — the writer-side mirror of oracleCursor.
//
// The sample count must be known up front (TBv1 leads the S block with
// it); flush verifies the promise was kept, because a count mismatch
// would make the stream undecodable past the shorter side.
type oracleEncoder struct {
	e        *oracleTBWriter
	base     tbState
	states   map[uint64]*tbState
	declared uint64
	written  uint64
}

// newOracleEncoder writes the TBv1 preamble (magic, header, machine and
// iteration blocks, sample count) and returns an encoder positioned at
// the first sample.
func newOracleEncoder(w io.Writer, start, end time.Time, period time.Duration, machines []MachineInfo, iterations []Iteration, samples uint64) *oracleEncoder {
	e := &oracleTBWriter{w: bufio.NewWriterSize(w, ioBufSize), dict: make(map[string]uint64, 64)}
	ver := tbVersionFor(machines)
	e.w.Write(magicTB)
	e.w.WriteByte(ver)

	var hdr tbState
	e.time(start, &hdr.timeSec, &hdr.timeNs)
	e.time(end, &hdr.bootSec, &hdr.bootNs) // scratch predictor; header times are near-absolute
	e.varint(int64(period))

	e.uvarint(uint64(len(machines)))
	for i := range machines {
		m := &machines[i]
		e.str(m.ID)
		e.str(m.Lab)
		e.varint(int64(m.RAMMB))
		e.f64(m.DiskGB)
		e.f64(m.IntIndex)
		e.f64(m.FPIndex)
		if ver >= tbVersion2 {
			e.varint(int64(m.JoinIter))
			e.varint(int64(m.LeaveIter))
		}
	}

	e.uvarint(uint64(len(iterations)))
	prev := baseState(start)
	for _, it := range iterations {
		e.varint(int64(it.Iter) - prev.iter)
		prev.iter = int64(it.Iter)
		e.time(it.Start, &prev.timeSec, &prev.timeNs)
		e.varint(int64(it.Attempted) - prev.mem)
		prev.mem = int64(it.Attempted)
		e.varint(int64(it.Responded) - prev.swap)
		prev.swap = int64(it.Responded)
		if it.End.IsZero() {
			e.uvarint(0)
		} else {
			e.uvarint(1)
			e.varint(it.End.Unix() - prev.timeSec)
			e.varint(int64(it.End.Nanosecond()) - prev.timeNs)
		}
		e.varint(int64(it.ParseErrors) - prev.cycles)
		prev.cycles = int64(it.ParseErrors)
	}

	e.uvarint(samples)
	return &oracleEncoder{
		e:        e,
		base:     baseState(start),
		states:   make(map[uint64]*tbState, len(machines)),
		declared: samples,
	}
}

// writeSample appends one sample, delta-coded against the previous
// sample of the same machine.
func (b *oracleEncoder) writeSample(s *Sample) {
	e := b.e
	e.str(s.Machine)
	mref := e.dict[s.Machine]
	st := b.states[mref]
	if st == nil {
		cp := b.base
		st = &cp
		b.states[mref] = st
	}
	e.str(s.Lab)
	e.varint(int64(s.Iter) - st.iter)
	st.iter = int64(s.Iter)
	e.time(s.Time, &st.timeSec, &st.timeNs)
	e.time(s.BootTime, &st.bootSec, &st.bootNs)
	e.varint(int64(s.Uptime) - st.uptime)
	st.uptime = int64(s.Uptime)
	e.varint(int64(s.CPUIdle) - st.cpuIdle)
	st.cpuIdle = int64(s.CPUIdle)
	e.varint(int64(s.MemLoadPct) - st.mem)
	st.mem = int64(s.MemLoadPct)
	e.varint(int64(s.SwapLoadPct) - st.swap)
	st.swap = int64(s.SwapLoadPct)
	db := math.Float64bits(s.DiskGB)
	e.uvarint(db ^ st.diskBits)
	st.diskBits = db
	fb := math.Float64bits(s.FreeDiskGB)
	e.uvarint(fb ^ st.freeBits)
	st.freeBits = fb
	e.varint(s.PowerCycles - st.cycles)
	st.cycles = s.PowerCycles
	e.varint(s.PowerOnHours - st.hours)
	st.hours = s.PowerOnHours
	e.varint(int64(s.SentBytes - st.sent)) // wrap-around delta
	st.sent = s.SentBytes
	e.varint(int64(s.RecvBytes - st.recv))
	st.recv = s.RecvBytes
	e.str(s.SessionUser)
	if s.SessionUser != "" {
		e.time(s.SessionStart, &st.sessSec, &st.sessNs)
	}
	b.written++
}

// flush drains the buffered writer after verifying the declared sample
// count was honoured.
func (b *oracleEncoder) flush() error {
	if b.written != b.declared {
		return fmt.Errorf("trace: tbv1: encoder wrote %d samples, declared %d", b.written, b.declared)
	}
	return b.e.w.Flush()
}

// oracleWriteBinary serialises the dataset in the TBv1 binary format.
func oracleWriteBinary(w io.Writer, d *Dataset) error {
	be := newOracleEncoder(w, d.Start, d.End, d.Period, d.Machines, d.Iterations, uint64(len(d.Samples)))
	for i := range d.Samples {
		be.writeSample(&d.Samples[i])
	}
	return be.flush()
}

// --- reader ---

type oracleTBReader struct {
	r    *bufio.Reader
	dict []string
	err  error
}

func (d *oracleTBReader) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("trace: tbv1: "+format, args...)
	}
}

func (d *oracleTBReader) wrap(what string, err error) {
	if d.err == nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		d.err = fmt.Errorf("trace: tbv1: %s: %w", what, err)
	}
}

func (d *oracleTBReader) uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(d.r)
	if err != nil {
		d.wrap(what, err)
		return 0
	}
	return v
}

func (d *oracleTBReader) varint(what string) int64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(d.r)
	if err != nil {
		d.wrap(what, err)
		return 0
	}
	return v
}

func (d *oracleTBReader) f64(what string) float64 {
	if d.err != nil {
		return 0
	}
	var b [8]byte
	if _, err := io.ReadFull(d.r, b[:]); err != nil {
		d.wrap(what, err)
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
}

// str reads a dictionary reference, materialising new entries.
func (d *oracleTBReader) str(what string) string {
	ref := d.uvarint(what)
	if d.err != nil {
		return ""
	}
	if ref < uint64(len(d.dict)) {
		return d.dict[ref]
	}
	if ref > uint64(len(d.dict)) {
		d.fail("%s: dictionary reference %d out of range (dict has %d)", what, ref, len(d.dict))
		return ""
	}
	n := d.uvarint(what)
	if d.err != nil {
		return ""
	}
	if n > tbMaxString {
		d.fail("%s: string length %d exceeds limit", what, n)
		return ""
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(d.r, buf); err != nil {
		d.wrap(what, err)
		return ""
	}
	s := string(buf)
	d.dict = append(d.dict, s)
	return s
}

// time reads an instant relative to a predictor, advancing it.
func (d *oracleTBReader) time(what string, sec, ns *int64) time.Time {
	*sec += d.varint(what)
	*ns += d.varint(what)
	if d.err != nil {
		return time.Time{}
	}
	return time.Unix(*sec, *ns).UTC()
}

// oracleCursor decodes a TBv1 stream incrementally. The header, machine
// catalogue and iteration log are read eagerly by the constructor (they
// are small and every analysis needs them up front); samples are then
// decoded one at a time by Next, so the caller's peak memory is one
// Sample plus the string dictionary — independent of trace length.
// ReadBinary is a client of the cursor; the out-of-core layer
// (internal/trace/stream) adds gzip sniffing, per-machine run chunking
// and a parallel scheduler on top.
//
// A cursor is single-use and not safe for concurrent use.
type oracleCursor struct {
	dec        *oracleTBReader
	start, end time.Time
	period     time.Duration
	machines   []MachineInfo
	iterations []Iteration

	declared uint64 // sample count the S block header claims
	decoded  uint64
	done     bool
	err      error

	base   tbState
	states map[string]*tbState
}

func newOracleCursor(br *bufio.Reader) (*oracleCursor, error) {
	var head [5]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("trace: tbv1: header: %w", err)
	}
	if !bytes.Equal(head[:4], magicTB) {
		return nil, fmt.Errorf("trace: tbv1: bad magic %q", head[:4])
	}
	if head[4] != tbVersion && head[4] != tbVersion2 {
		return nil, fmt.Errorf("trace: tbv1: unsupported version %d", head[4])
	}
	ver := head[4]

	dec := &oracleTBReader{r: br}
	c := &oracleCursor{dec: dec}
	var hdr tbState
	c.start = dec.time("start time", &hdr.timeSec, &hdr.timeNs)
	c.end = dec.time("end time", &hdr.bootSec, &hdr.bootNs) // scratch predictor; header times are near-absolute
	c.period = time.Duration(dec.varint("period"))

	nM := dec.uvarint("machine count")
	if dec.err == nil && nM > 0 { // n==0 keeps the slice nil
		c.machines = make([]MachineInfo, 0, clampPrealloc(nM))
	}
	for i := uint64(0); i < nM && dec.err == nil; i++ {
		var m MachineInfo
		m.ID = dec.str("machine id")
		m.Lab = dec.str("machine lab")
		m.RAMMB = int(dec.varint("machine ram"))
		m.DiskGB = dec.f64("machine disk")
		m.IntIndex = dec.f64("machine int index")
		m.FPIndex = dec.f64("machine fp index")
		if ver >= tbVersion2 {
			m.JoinIter = int(dec.varint("machine join iter"))
			m.LeaveIter = int(dec.varint("machine leave iter"))
			if dec.err == nil && (m.JoinIter < 0 || m.LeaveIter < 0 || (m.LeaveIter > 0 && m.LeaveIter <= m.JoinIter)) {
				dec.fail("machine %s lifetime [%d,%d) invalid", m.ID, m.JoinIter, m.LeaveIter)
			}
		}
		if dec.err == nil {
			c.machines = append(c.machines, m)
		}
	}

	nI := dec.uvarint("iteration count")
	if dec.err == nil && nI > 0 {
		c.iterations = make([]Iteration, 0, clampPrealloc(nI))
	}
	prev := baseState(c.start)
	for i := uint64(0); i < nI && dec.err == nil; i++ {
		var it Iteration
		prev.iter += dec.varint("iteration number")
		it.Iter = int(prev.iter)
		it.Start = dec.time("iteration start", &prev.timeSec, &prev.timeNs)
		prev.mem += dec.varint("iteration attempted")
		it.Attempted = int(prev.mem)
		prev.swap += dec.varint("iteration responded")
		it.Responded = int(prev.swap)
		switch dec.uvarint("iteration end flag") {
		case 0:
		case 1:
			sec := prev.timeSec + dec.varint("iteration end")
			ns := prev.timeNs + dec.varint("iteration end nanos")
			if dec.err == nil {
				it.End = time.Unix(sec, ns).UTC()
			}
		default:
			dec.fail("iteration end flag out of range")
		}
		prev.cycles += dec.varint("iteration parse errors")
		it.ParseErrors = int(prev.cycles)
		if dec.err == nil {
			c.iterations = append(c.iterations, it)
		}
	}

	c.declared = dec.uvarint("sample count")
	if dec.err != nil {
		return nil, dec.err
	}
	c.base = baseState(c.start)
	c.states = make(map[string]*tbState, len(c.machines))
	return c, nil
}

// Start returns the trace start time from the header.
func (c *oracleCursor) Start() time.Time { return c.start }

// End returns the trace end time from the header.
func (c *oracleCursor) End() time.Time { return c.end }

// Period returns the collection period from the header.
func (c *oracleCursor) Period() time.Duration { return c.period }

// Machines returns the machine catalogue (decoded eagerly). The slice
// is owned by the cursor; treat it as read-only.
func (c *oracleCursor) Machines() []MachineInfo { return c.machines }

// Iterations returns the iteration log (decoded eagerly). The slice is
// owned by the cursor; treat it as read-only.
func (c *oracleCursor) Iterations() []Iteration { return c.iterations }

// DeclaredSamples returns the sample count the stream header claims.
// It is untrusted input: the cursor never allocates proportionally to
// it, and a well-formed stream proves it one decoded sample at a time.
func (c *oracleCursor) DeclaredSamples() uint64 { return c.declared }

// Next decodes the next sample into *s and reports whether one was
// produced. At a clean end of stream it verifies there is no trailing
// data and returns (false, nil); any decode error is sticky and is
// returned from every subsequent call.
func (c *oracleCursor) Next(s *Sample) (bool, error) {
	if c.err != nil {
		return false, c.err
	}
	if c.done {
		return false, nil
	}
	if c.decoded == c.declared {
		c.done = true
		if _, err := c.dec.r.ReadByte(); err != io.EOF {
			c.err = fmt.Errorf("trace: tbv1: trailing data after sample block")
			return false, c.err
		}
		return false, nil
	}

	dec := c.dec
	*s = Sample{}
	s.Machine = dec.str("sample machine")
	if dec.err != nil {
		c.err = dec.err
		return false, c.err
	}
	st := c.states[s.Machine]
	if st == nil {
		cp := c.base
		st = &cp
		c.states[s.Machine] = st
	}
	s.Lab = dec.str("sample lab")
	st.iter += dec.varint("sample iter")
	s.Iter = int(st.iter)
	s.Time = dec.time("sample time", &st.timeSec, &st.timeNs)
	s.BootTime = dec.time("sample boot time", &st.bootSec, &st.bootNs)
	st.uptime += dec.varint("sample uptime")
	s.Uptime = time.Duration(st.uptime)
	st.cpuIdle += dec.varint("sample cpu idle")
	s.CPUIdle = time.Duration(st.cpuIdle)
	st.mem += dec.varint("sample mem load")
	s.MemLoadPct = int(st.mem)
	st.swap += dec.varint("sample swap load")
	s.SwapLoadPct = int(st.swap)
	st.diskBits ^= dec.uvarint("sample disk gb")
	s.DiskGB = math.Float64frombits(st.diskBits)
	st.freeBits ^= dec.uvarint("sample free gb")
	s.FreeDiskGB = math.Float64frombits(st.freeBits)
	st.cycles += dec.varint("sample power cycles")
	s.PowerCycles = st.cycles
	st.hours += dec.varint("sample power-on hours")
	s.PowerOnHours = st.hours
	st.sent += uint64(dec.varint("sample sent bytes"))
	s.SentBytes = st.sent
	st.recv += uint64(dec.varint("sample recv bytes"))
	s.RecvBytes = st.recv
	s.SessionUser = dec.str("sample session user")
	if s.SessionUser != "" {
		s.SessionStart = dec.time("sample session start", &st.sessSec, &st.sessNs)
	}
	if dec.err != nil {
		c.err = dec.err
		return false, c.err
	}
	c.decoded++
	return true, nil
}
