package trace

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"time"
)

// TBv1 — the winlab binary trace format.
//
// TBv1 is the one trace format: traces are written once and re-analysed
// many times (Grid'5000-style year-in-the-life platform logs). It encodes
// a Dataset loss-free and compactly because it exploits the shape of
// monitoring data: per-machine streams of slowly-changing counters.
//
// Layout (all integers are varints unless noted):
//
//	magic   "WLTB" (4 bytes) + version (1 byte, = 1 or 2)
//	header  start time, end time, period            (times: sec varint + nanos varint)
//	dict    strings are interned on first use: a reference uvarint equal to
//	        the current dictionary size introduces a new entry (uvarint
//	        length + bytes); smaller references reuse entry N.
//	M block uvarint count, then per machine:
//	        id ref, lab ref, ram-mb, disk/int/fp index (8-byte LE float64)
//	        version 2 appends join-iter and leave-iter varints (machine
//	        lifetime bounds; see MachineInfo.ActiveAt)
//	I block uvarint count, then per iteration, delta-coded against the
//	        previous iteration: iter Δ, start Δ, attempted Δ, responded Δ,
//	        end (0 = unset | 1 + offset from start), parse-errors Δ
//	S block uvarint count, then per sample, delta-coded against the
//	        previous sample of the *same machine* (first sample of a
//	        machine deltas against the header start time and zeroes):
//	        machine ref, lab ref, iter Δ, time Δ, boot Δ, uptime Δ,
//	        cpu-idle Δ, mem Δ, swap Δ, disk-gb bits⊕prev (uvarint),
//	        free-gb bits⊕prev (uvarint), cycles Δ, poweron Δ, sent Δ,
//	        recv Δ, user ref, [session start Δ when user ≠ ""]
//
// Why deltas + XOR: consecutive samples of one machine differ by roughly
// one period in every clock, by small increments in every counter, and
// not at all in most floats — so deltas are 1–6 byte varints and the XOR
// of two nearby float64s clears the high mantissa bits. Samples stay in
// dataset order (a machine's predictor is found through its dictionary
// reference, whatever was sampled in between), so a decoded dataset is
// deep-equal to the encoded one, including sample order. The predictor
// belongs to the dictionary slot: writers intern every string once, and
// a hostile stream that interns a machine twice gets two predictors.
//
// Malformed input must produce errors, never panics or unbounded
// allocation: every count and string length is validated against caps
// before memory is reserved, and no count reserves more than the input
// can hold — memory stays proportional to the input's size (see
// FuzzReadBinary and TestReadBinaryAllocBomb).

// magicTB identifies a TBv1 stream. Version 1 is the original layout;
// version 2 adds machine lifetime bounds to the M block and is written
// only when some machine actually has a partial lifetime, so every
// pre-lifecycle trace re-encodes byte-identically.
var magicTB = []byte("WLTB")

const (
	tbVersion  = 1
	tbVersion2 = 2
)

// tbVersionFor picks the lowest format version that can represent the
// machine catalogue.
func tbVersionFor(machines []MachineInfo) byte {
	for i := range machines {
		if machines[i].PartialLifetime() {
			return tbVersion2
		}
	}
	return tbVersion
}

// tbMaxString caps a single dictionary entry; tbPrealloc caps how many
// entries a count preallocates before the stream proves they exist.
//
// The leading uvarint counts are untrusted input: a corrupt or
// truncated header claiming 2⁶⁰ samples must not be able to demand a
// multi-GB allocation before the sticky-error decoder has seen a single
// payload byte. Two rules keep memory proportional to the input's size:
//
//   - When the reader knows the input's byte count (ReadFile on a plain
//     file, a merged manifest image) and the count is one the bytes can
//     hold — count × tbMinSampleWire ≤ bytes — readBinary allocates the
//     sample array once, exactly sized. A lie that passes this test
//     costs at most Sizeof(Sample)/tbMinSampleWire ≈ 12 bytes of array
//     per input byte.
//   - Otherwise (gzip, a stream of unknown length, a count the bytes
//     cannot hold, and every catalogue and log count) a slice starts at
//     min(count, tbPrealloc) capacity and grows through growTo, each
//     append after a whole entry decoded, so memory tracks the input
//     actually consumed, never what the header promises.
const (
	tbMaxString = 1 << 20
	tbPrealloc  = 1 << 12
)

// tbMinSampleWire is the smallest wire size of a sample: a machine and a
// lab reference, the fifteen numeric varints and a session-user
// reference, one byte each.
const tbMinSampleWire = 18

// clampPrealloc bounds a slice preallocation taken from an untrusted
// leading count that the input's size has not vouched for.
func clampPrealloc(n uint64) int {
	if n > tbPrealloc {
		return tbPrealloc
	}
	return int(n)
}

// growTo makes room for one more entry in a slice that mirrors an
// untrusted count on the growth path. Capacity doubles — append's 1.25×
// schedule copies a long catalogue five times over — but never past the
// declared count, and only once the entries so far have really decoded,
// so memory stays proportional to input consumed.
func growTo[T any](s []T, declared uint64) []T {
	if len(s) < cap(s) {
		return s
	}
	n := uint64(max(len(s), 16))
	if room := declared - uint64(len(s)); room < n {
		n = max(room, 1)
	}
	return slices.Grow(s, int(n))
}

// tbState is the per-machine (and per-iteration) delta predictor. Writer
// and reader evolve identical copies, so only differences hit the wire.
type tbState struct {
	iter      int64
	timeSec   int64
	timeNs    int64
	bootSec   int64
	bootNs    int64
	uptime    int64
	cpuIdle   int64
	mem, swap int64
	diskBits  uint64
	freeBits  uint64
	cycles    int64
	hours     int64
	sent      uint64
	recv      uint64
	sessSec   int64
	sessNs    int64
}

// baseState seeds every machine's predictor from the header start time.
func baseState(start time.Time) tbState {
	return tbState{
		timeSec: start.Unix(), timeNs: int64(start.Nanosecond()),
		bootSec: start.Unix(),
		sessSec: start.Unix(),
	}
}

// tbSlab hands out per-machine predictor states, indexed by dictionary
// reference (no string is hashed to find one). States are cut from
// chunked backing arrays — a 100k-machine stream costs a few hundred
// allocations, not one per machine — and a chunk is never reallocated,
// so the pointers handed out stay valid.
type tbSlab struct {
	base  tbState
	byRef []*tbState
	free  []tbState // uncut tail of the newest chunk
	chunk int       // its size
}

// tbSlabChunk caps a backing array; chunks double up to it, so a small
// stream stays small and an untrusted one pays only for the machines its
// samples actually name.
const tbSlabChunk = 1024

// get returns the predictor of the machine interned at ref, seeding a
// new one from the header start time on first use.
func (p *tbSlab) get(ref uint64) *tbState {
	if ref < uint64(len(p.byRef)) {
		if st := p.byRef[ref]; st != nil {
			return st
		}
	}
	for uint64(len(p.byRef)) <= ref {
		p.byRef = append(p.byRef, nil)
	}
	if len(p.free) == 0 {
		p.chunk = min(max(16, 2*p.chunk), tbSlabChunk)
		p.free = make([]tbState, p.chunk)
	}
	st := &p.free[0]
	p.free = p.free[1:]
	*st = p.base
	p.byRef[ref] = st
	return st
}

// --- writer ---

// tbWriter appends the wire form of each field to one reusable buffer;
// the owner hands the buffer to w a full IO window at a time (spill),
// so a sample costs no Write call of its own.
type tbWriter struct {
	w    io.Writer
	buf  []byte
	err  error // first write error; sticky, reported by flush
	dict map[string]uint64
}

func (e *tbWriter) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

func (e *tbWriter) varint(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

func (e *tbWriter) f64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

// str writes a dictionary reference, introducing the string on first
// use, and returns the reference.
func (e *tbWriter) str(s string) uint64 {
	idx, ok := e.dict[s]
	if ok {
		e.uvarint(idx)
		return idx
	}
	idx = uint64(len(e.dict))
	e.dict[s] = idx
	e.uvarint(idx)
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
	return idx
}

// refMemo remembers the last string one field position interned, so a
// machine-contiguous stream looks nothing up inside a run: the machine,
// its lab and the (usually empty) session user repeat sample after
// sample.
type refMemo struct {
	s   string
	ref uint64
	ok  bool
}

// memoStr is str through a one-entry memo.
func (e *tbWriter) memoStr(m *refMemo, s string) uint64 {
	if m.ok && m.s == s {
		e.uvarint(m.ref)
		return m.ref
	}
	m.s, m.ref, m.ok = s, e.str(s), true
	return m.ref
}

// time writes an absolute instant relative to a predictor, advancing it.
func (e *tbWriter) time(t time.Time, sec, ns *int64) {
	ts, tn := t.Unix(), int64(t.Nanosecond())
	e.varint(ts - *sec)
	e.varint(tn - *ns)
	*sec, *ns = ts, tn
}

// tbSpill is the buffer fill at which spill writes it out: one IO window
// less room for a whole sample, so the buffer never regrows on the way.
const tbSpill = ioBufSize - 512

// spill hands a full buffer to the underlying writer. Callers invoke it
// between records, so every Write carries whole records.
func (e *tbWriter) spill() {
	if len(e.buf) >= tbSpill {
		e.flush()
	}
}

// flush writes the buffered bytes out and returns the first write error
// the stream has seen.
func (e *tbWriter) flush() error {
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
	return e.err
}

// binaryEncoder writes a TBv1 stream incrementally: the header, machine
// catalogue, iteration log and declared sample count go out eagerly at
// construction, then each writeSample appends one delta-coded sample.
// WriteBinary is its batch client and the segment compactor
// (MergeSegments) streams merged samples through it, so there is exactly
// one TBv1 encode path — the writer-side mirror of BinaryCursor.
//
// The sample count must be known up front (TBv1 leads the S block with
// it); flush verifies the promise was kept, because a count mismatch
// would make the stream undecodable past the shorter side.
type binaryEncoder struct {
	e      *tbWriter
	states tbSlab

	// Per-field memos of the previous sample, and the predictor of the
	// memoised machine.
	machine, lab, user refMemo
	st                 *tbState

	declared uint64
	written  uint64
}

// newBinaryEncoder writes the TBv1 preamble (magic, header, machine and
// iteration blocks, sample count) and returns an encoder positioned at
// the first sample.
func newBinaryEncoder(w io.Writer, start, end time.Time, period time.Duration, machines []MachineInfo, iterations []Iteration, samples uint64) *binaryEncoder {
	e := &tbWriter{w: w, buf: make([]byte, 0, ioBufSize), dict: make(map[string]uint64, len(machines)+64)}
	ver := tbVersionFor(machines)
	e.buf = append(e.buf, magicTB...)
	e.buf = append(e.buf, ver)

	var hdr tbState
	e.time(start, &hdr.timeSec, &hdr.timeNs)
	e.time(end, &hdr.bootSec, &hdr.bootNs) // scratch predictor; header times are near-absolute
	e.varint(int64(period))

	e.uvarint(uint64(len(machines)))
	for i := range machines {
		m := &machines[i]
		e.spill()
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
		e.spill()
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
	return &binaryEncoder{
		e:        e,
		states:   tbSlab{base: baseState(start)},
		declared: samples,
	}
}

// writeSample appends one sample, delta-coded against the previous
// sample of the same machine.
func (b *binaryEncoder) writeSample(s *Sample) {
	e := b.e
	e.spill()
	was := b.machine.ref
	if ref := e.memoStr(&b.machine, s.Machine); ref != was || b.st == nil {
		b.st = b.states.get(ref)
	}
	st := b.st
	e.memoStr(&b.lab, s.Lab)

	// The fifteen numeric fields append through a local, so the slice
	// header is not reloaded and stored back once per varint.
	buf := e.buf
	buf = binary.AppendVarint(buf, int64(s.Iter)-st.iter)
	st.iter = int64(s.Iter)
	sec, ns := s.Time.Unix(), int64(s.Time.Nanosecond())
	buf = binary.AppendVarint(buf, sec-st.timeSec)
	buf = binary.AppendVarint(buf, ns-st.timeNs)
	st.timeSec, st.timeNs = sec, ns
	sec, ns = s.BootTime.Unix(), int64(s.BootTime.Nanosecond())
	buf = binary.AppendVarint(buf, sec-st.bootSec)
	buf = binary.AppendVarint(buf, ns-st.bootNs)
	st.bootSec, st.bootNs = sec, ns
	buf = binary.AppendVarint(buf, int64(s.Uptime)-st.uptime)
	st.uptime = int64(s.Uptime)
	buf = binary.AppendVarint(buf, int64(s.CPUIdle)-st.cpuIdle)
	st.cpuIdle = int64(s.CPUIdle)
	buf = binary.AppendVarint(buf, int64(s.MemLoadPct)-st.mem)
	st.mem = int64(s.MemLoadPct)
	buf = binary.AppendVarint(buf, int64(s.SwapLoadPct)-st.swap)
	st.swap = int64(s.SwapLoadPct)
	db := math.Float64bits(s.DiskGB)
	buf = binary.AppendUvarint(buf, db^st.diskBits)
	st.diskBits = db
	fb := math.Float64bits(s.FreeDiskGB)
	buf = binary.AppendUvarint(buf, fb^st.freeBits)
	st.freeBits = fb
	buf = binary.AppendVarint(buf, s.PowerCycles-st.cycles)
	st.cycles = s.PowerCycles
	buf = binary.AppendVarint(buf, s.PowerOnHours-st.hours)
	st.hours = s.PowerOnHours
	buf = binary.AppendVarint(buf, int64(s.SentBytes-st.sent)) // wrap-around delta
	st.sent = s.SentBytes
	buf = binary.AppendVarint(buf, int64(s.RecvBytes-st.recv))
	st.recv = s.RecvBytes
	e.buf = buf

	e.memoStr(&b.user, s.SessionUser)
	if s.SessionUser != "" {
		e.time(s.SessionStart, &st.sessSec, &st.sessNs)
	}
	b.written++
}

// flush drains the buffer after verifying the declared sample count was
// honoured.
func (b *binaryEncoder) flush() error {
	if b.written != b.declared {
		return fmt.Errorf("trace: tbv1: encoder wrote %d samples, declared %d", b.written, b.declared)
	}
	return b.e.flush()
}

// WriteBinary serialises the dataset in the TBv1 binary format.
func WriteBinary(w io.Writer, d *Dataset) error {
	be := newBinaryEncoder(w, d.Start, d.End, d.Period, d.Machines, d.Iterations, uint64(len(d.Samples)))
	for i := range d.Samples {
		be.writeSample(&d.Samples[i])
	}
	return be.flush()
}

// --- reader ---

// tbReader decodes fields from a peeked window of r's buffer: varints
// and short strings are sliced straight out of it, with no call into
// bufio per byte. Whatever the window cannot serve — a field that
// straddles its end, a string longer than it, the last bytes of the
// stream — goes through r directly, which is also where every
// truncation and overflow error is produced.
type tbReader struct {
	r       *bufio.Reader
	win     []byte // peeked from r, not yet consumed
	peeked  int    // len(win) when it was peeked; the rest is consumed
	scratch []byte // staging for bytes read past the window
	dict    []string
	err     error
}

// tbWindow is how far ahead the reader peeks: a hundred samples or so
// per refill, and small enough to fit any caller-supplied bufio.Reader
// worth the name.
const tbWindow = 4096

// sync returns the unconsumed window to r ahead of a direct read.
func (d *tbReader) sync() {
	d.r.Discard(d.peeked - len(d.win)) // peeked bytes are buffered: cannot fail
	d.win, d.peeked = nil, 0
}

// fill re-peeks the window. A short (or empty) window is not an error
// here: the caller falls through to a direct read, which reports it.
func (d *tbReader) fill() {
	d.sync()
	d.win, _ = d.r.Peek(tbWindow)
	d.peeked = len(d.win)
}

// bytes returns the next n bytes of the stream: a slice of the window
// when it holds them (refilled once), otherwise read from r into the
// scratch buffer. Either way they are only good until the next read.
// After an error it returns nil.
func (d *tbReader) bytes(what string, n int) []byte {
	if len(d.win) < n && d.err == nil {
		d.fill()
	}
	if len(d.win) >= n {
		b := d.win[:n]
		d.win = d.win[n:]
		return b
	}
	if d.err != nil {
		return nil
	}
	d.sync()
	if cap(d.scratch) < n {
		d.scratch = make([]byte, n)
	}
	b := d.scratch[:n]
	if _, err := io.ReadFull(d.r, b); err != nil {
		d.wrap(what, err)
		return nil
	}
	return b
}

// atEOF reports whether the stream has been consumed exactly.
func (d *tbReader) atEOF() bool {
	if len(d.win) > 0 {
		return false
	}
	d.sync()
	_, err := d.r.ReadByte()
	return err == io.EOF
}

func (d *tbReader) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("trace: tbv1: "+format, args...)
		d.win, d.peeked = nil, 0 // sticky: no fast path reads on
	}
}

func (d *tbReader) wrap(what string, err error) {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	d.fail("%s: %w", what, err)
}

func (d *tbReader) uvarint(what string) uint64 {
	if v, n := binary.Uvarint(d.win); n > 0 {
		d.win = d.win[n:]
		return v
	}
	return d.uvarintSlow(what)
}

// uvarintSlow serves a varint the window does not hold whole.
func (d *tbReader) uvarintSlow(what string) uint64 {
	if d.err != nil {
		return 0
	}
	d.fill()
	if v, n := binary.Uvarint(d.win); n > 0 {
		d.win = d.win[n:]
		return v
	}
	// Overflow, or the stream ends inside the varint: the byte-wise
	// reader tells which.
	d.sync()
	v, err := binary.ReadUvarint(d.r)
	if err != nil {
		d.wrap(what, err)
		return 0
	}
	return v
}

// unzig maps a zig-zag varint back to the signed value it encodes.
func unzig(ux uint64) int64 {
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

func (d *tbReader) varint(what string) int64 { return unzig(d.uvarint(what)) }

func (d *tbReader) f64(what string) float64 {
	b := d.bytes(what, 8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// str reads a dictionary reference, materialising new entries, and
// returns the string with its reference.
func (d *tbReader) str(what string) (string, uint64) {
	ref := d.uvarint(what)
	if d.err != nil {
		return "", 0
	}
	if ref < uint64(len(d.dict)) {
		return d.dict[ref], ref
	}
	if ref > uint64(len(d.dict)) {
		d.fail("%s: dictionary reference %d out of range (dict has %d)", what, ref, len(d.dict))
		return "", 0
	}
	n := d.uvarint(what)
	if d.err != nil {
		return "", 0
	}
	if n > tbMaxString {
		d.fail("%s: string length %d exceeds limit", what, n)
		return "", 0
	}
	b := d.bytes(what, int(n))
	if d.err != nil {
		return "", 0
	}
	s := string(b)
	d.dict = append(growTo(d.dict, math.MaxUint64), s)
	return s, ref
}

// time reads an instant relative to a predictor, advancing it.
func (d *tbReader) time(what string, sec, ns *int64) time.Time {
	*sec += d.varint(what)
	*ns += d.varint(what)
	if d.err != nil {
		return time.Time{}
	}
	return time.Unix(*sec, *ns).UTC()
}

// ReadBinary deserialises a TBv1 dataset written by WriteBinary.
func ReadBinary(r io.Reader) (*Dataset, error) {
	return readBinary(bufio.NewReaderSize(r, ioBufSize), -1)
}

// readBinary is a client of the incremental cursor: it drains every
// sample into a Dataset. Keeping the batch reader layered on the cursor
// makes the two differential by construction — there is exactly one
// TBv1 decode path.
//
// size is the stream's length in bytes, or negative when the caller
// does not know it. A declared count that size can hold gets its sample
// array allocated once; any other count takes the growth path (see
// tbPrealloc).
func readBinary(br *bufio.Reader, size int64) (*Dataset, error) {
	c, err := newBinaryCursor(br)
	if err != nil {
		return nil, err
	}
	ds := &Dataset{
		Start:      c.start,
		End:        c.end,
		Period:     c.period,
		Machines:   c.machines,
		Iterations: c.iterations,
	}
	if c.declared > 0 { // a zero count keeps the slice nil
		n := clampPrealloc(c.declared)
		if size >= 0 && c.declared <= uint64(size)/tbMinSampleWire {
			n = int(c.declared)
		}
		ds.Samples = make([]Sample, 0, n)
	}
	// Each sample decodes straight into its slot.
	for c.decoded < c.declared {
		s := growTo(ds.Samples, c.declared)
		ds.Samples = s[:len(s)+1]
		if _, err := c.Next(&ds.Samples[len(s)]); err != nil {
			return nil, err
		}
	}
	// The count is honoured: this call only checks for trailing data.
	var end Sample
	if _, err := c.Next(&end); err != nil {
		return nil, err
	}
	return ds, nil
}

// A sample's varints in wire order: the machine and lab references,
// fifteen numeric fields, the session-user reference and, when that
// user is not "", the session start. fieldLabels names the numeric
// fields in decode errors.
const (
	wMachine = iota
	wLab
	fIter
	fTimeSec
	fTimeNs
	fBootSec
	fBootNs
	fUptime
	fCPUIdle
	fMem
	fSwap
	fDisk
	fFree
	fCycles
	fHours
	fSent
	fRecv
	wUser
	fSessSec // the session start, only when the session user is not ""
	fSessNs
	tbSampleWire
)

var fieldLabels = [tbSampleWire]string{
	fIter: "sample iter", fTimeSec: "sample time", fTimeNs: "sample time",
	fBootSec: "sample boot time", fBootNs: "sample boot time",
	fUptime: "sample uptime", fCPUIdle: "sample cpu idle",
	fMem: "sample mem load", fSwap: "sample swap load",
	fDisk: "sample disk gb", fFree: "sample free gb",
	fCycles: "sample power cycles", fHours: "sample power-on hours",
	fSent: "sample sent bytes", fRecv: "sample recv bytes",
}

// tbFastWindow is the window a sample's fast path needs: the eighteen
// varints every sample carries at their longest. The fast path takes
// none longer than nine bytes, so the two session varints fit too.
const tbFastWindow = (wUser + 1) * binary.MaxVarintLen64

// sampleVarints decodes a sample's varints into w in one pass over the
// window, the common case: every reference names a string already in
// the dictionary and no varint is ten bytes long. Anything else — a
// short window, a reference that introduces a string or points past
// the dictionary, a ten-byte varint — consumes nothing and reports
// false, and the caller decodes the sample field by field, which also
// words the errors. The machine reference is tested first, so a sample
// that interns its machine is turned away after one varint.
func (d *tbReader) sampleVarints(w *[tbSampleWire]uint64) bool {
	b := d.win
	if len(b) < tbFastWindow {
		return false
	}
	refs := uint64(len(d.dict))
	m, off := uvarintAt(b, 0)
	if off < 0 || m >= refs {
		return false
	}
	w[wMachine] = m
	for i := wLab; i <= wUser; i++ {
		if w[i], off = uvarintAt(b, off); off < 0 {
			return false
		}
	}
	if w[wLab] >= refs || w[wUser] >= refs {
		return false
	}
	if d.dict[w[wUser]] != "" {
		for i := fSessSec; i <= fSessNs; i++ {
			if w[i], off = uvarintAt(b, off); off < 0 {
				return false
			}
		}
	}
	d.win = b[off:]
	return true
}

// uvarintAt decodes the varint at b[off:], which must hold nine bytes,
// and returns it with the offset just past it — or an offset of -1 if
// nine bytes do not end it, leaving a tenth byte and every error to the
// checked path.
func uvarintAt(b []byte, off int) (uint64, int) {
	var x uint64
	for shift := uint(0); shift < 63; shift += 7 {
		c := b[off]
		off++
		if c < 0x80 {
			return x | uint64(c)<<shift, off
		}
		x |= uint64(c&0x7f) << shift
	}
	return 0, -1
}

// BinaryCursor decodes a TBv1 stream incrementally. The header, machine
// catalogue and iteration log are read eagerly by the constructor (they
// are small and every analysis needs them up front); samples are then
// decoded one at a time by Next, so the caller's peak memory is one
// Sample plus the string dictionary — independent of trace length.
// ReadBinary is a client of the cursor; the out-of-core layer
// (internal/trace/stream) adds gzip sniffing, per-machine run chunking
// and a parallel scheduler on top.
//
// A cursor is single-use and not safe for concurrent use.
type BinaryCursor struct {
	dec        *tbReader
	start, end time.Time
	period     time.Duration
	machines   []MachineInfo
	iterations []Iteration

	declared uint64 // sample count the S block header claims
	decoded  uint64
	done     bool
	err      error

	states tbSlab
	mref   uint64 // dictionary reference of the last sample's machine
}

// NewBinaryCursor reads the TBv1 magic, header, machine and iteration
// blocks from r and positions the cursor before the first sample. The
// input must be an uncompressed TBv1 stream; stream.New layers gzip
// sniffing on top for files of unknown provenance.
func NewBinaryCursor(r io.Reader) (*BinaryCursor, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, ioBufSize)
	}
	return newBinaryCursor(br)
}

func newBinaryCursor(br *bufio.Reader) (*BinaryCursor, error) {
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

	dec := &tbReader{r: br}
	c := &BinaryCursor{dec: dec}
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
		m.ID, _ = dec.str("machine id")
		m.Lab, _ = dec.str("machine lab")
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
			c.machines = append(growTo(c.machines, nM), m)
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
			c.iterations = append(growTo(c.iterations, nI), it)
		}
	}

	c.declared = dec.uvarint("sample count")
	if dec.err != nil {
		return nil, dec.err
	}
	c.states.base = baseState(c.start)
	return c, nil
}

// Start returns the trace start time from the header.
func (c *BinaryCursor) Start() time.Time { return c.start }

// End returns the trace end time from the header.
func (c *BinaryCursor) End() time.Time { return c.end }

// Period returns the collection period from the header.
func (c *BinaryCursor) Period() time.Duration { return c.period }

// Machines returns the machine catalogue (decoded eagerly). The slice
// is owned by the cursor; treat it as read-only.
func (c *BinaryCursor) Machines() []MachineInfo { return c.machines }

// Iterations returns the iteration log (decoded eagerly). The slice is
// owned by the cursor; treat it as read-only.
func (c *BinaryCursor) Iterations() []Iteration { return c.iterations }

// DeclaredSamples returns the sample count the stream header claims.
// It is untrusted input: the cursor never allocates proportionally to
// it, and a well-formed stream proves it one decoded sample at a time.
// A caller that sizes memory by it must first check it against the
// input's size, as readBinary does (at least tbMinSampleWire bytes a
// sample).
func (c *BinaryCursor) DeclaredSamples() uint64 { return c.declared }

// Next decodes the next sample into *s and reports whether one was
// produced. At a clean end of stream it verifies there is no trailing
// data and returns (false, nil); any decode error is sticky and is
// returned from every subsequent call.
func (c *BinaryCursor) Next(s *Sample) (bool, error) {
	if c.err != nil {
		return false, c.err
	}
	if c.done {
		return false, nil
	}
	if c.decoded == c.declared {
		c.done = true
		if !c.dec.atEOF() {
			c.err = fmt.Errorf("trace: tbv1: trailing data after sample block")
			return false, c.err
		}
		return false, nil
	}

	dec := c.dec
	if len(dec.win) < tbFastWindow {
		dec.fill() // eagerly, so a sample near the window's end stays fast
	}
	var w [tbSampleWire]uint64
	if !dec.sampleVarints(&w) {
		_, w[wMachine] = dec.str("sample machine")
		_, w[wLab] = dec.str("sample lab")
		for i := fIter; i < wUser; i++ {
			w[i] = dec.uvarint(fieldLabels[i])
		}
		var user string
		user, w[wUser] = dec.str("sample session user")
		if user != "" {
			w[fSessSec] = dec.uvarint("sample session start")
			w[fSessNs] = dec.uvarint("sample session start")
		}
		if dec.err != nil {
			c.err = dec.err
			return false, c.err
		}
	}
	c.mref = w[wMachine]
	st := c.states.get(c.mref)
	s.Machine, s.Lab = dec.dict[c.mref], dec.dict[w[wLab]]
	st.iter += unzig(w[fIter])
	s.Iter = int(st.iter)
	st.timeSec += unzig(w[fTimeSec])
	st.timeNs += unzig(w[fTimeNs])
	s.Time = time.Unix(st.timeSec, st.timeNs).UTC()
	st.bootSec += unzig(w[fBootSec])
	st.bootNs += unzig(w[fBootNs])
	s.BootTime = time.Unix(st.bootSec, st.bootNs).UTC()
	st.uptime += unzig(w[fUptime])
	s.Uptime = time.Duration(st.uptime)
	st.cpuIdle += unzig(w[fCPUIdle])
	s.CPUIdle = time.Duration(st.cpuIdle)
	st.mem += unzig(w[fMem])
	s.MemLoadPct = int(st.mem)
	st.swap += unzig(w[fSwap])
	s.SwapLoadPct = int(st.swap)
	st.diskBits ^= w[fDisk]
	s.DiskGB = math.Float64frombits(st.diskBits)
	st.freeBits ^= w[fFree]
	s.FreeDiskGB = math.Float64frombits(st.freeBits)
	st.cycles += unzig(w[fCycles])
	s.PowerCycles = st.cycles
	st.hours += unzig(w[fHours])
	s.PowerOnHours = st.hours
	st.sent += uint64(unzig(w[fSent]))
	s.SentBytes = st.sent
	st.recv += uint64(unzig(w[fRecv]))
	s.RecvBytes = st.recv
	s.SessionUser = dec.dict[w[wUser]]
	if s.SessionUser != "" {
		st.sessSec += unzig(w[fSessSec])
		st.sessNs += unzig(w[fSessNs])
		s.SessionStart = time.Unix(st.sessSec, st.sessNs).UTC()
	} else {
		s.SessionStart = time.Time{}
	}
	c.decoded++
	return true, nil
}

// gzipMagic is the two-byte gzip member header (RFC 1952). ReadAny
// sniffs it so compressed traces load even when the path-based ".gz"
// detection never ran (stdin, pipes, misnamed files).
var gzipMagic = []byte{0x1f, 0x8b}

// ReadAny deserialises a TBv1 dataset, sniffing the content: a stream
// opening with the TBv1 magic decodes as binary, and a gzip stream is
// transparently decompressed and re-sniffed. Anything else is "not a
// TBv1 stream" — a segment manifest included (ReadFile loads those).
//
// Edge cases get addressed errors: an empty stream reports itself as
// empty, and a stream that ends inside the four-byte TBv1 magic (a
// truncated binary trace) reports the truncation.
func ReadAny(r io.Reader) (*Dataset, error) {
	return readAny(bufio.NewReaderSize(r, ioBufSize), -1)
}

// readAny is ReadAny over a buffered stream of size bytes (negative:
// unknown), which sizes the sample array of a plain TBv1 stream.
func readAny(br *bufio.Reader, size int64) (*Dataset, error) {
	head, err := br.Peek(len(magicTB))
	switch {
	case err == nil && bytes.Equal(head, magicTB):
		return readBinary(br, size)
	case bytes.HasPrefix(head, gzipMagic):
		// Compressed stream: decompress and sniff the payload again (a
		// .tb.gz read without extension hints lands here). gzip members
		// never open with 'W', so this cannot shadow TBv1.
		gz, gerr := gzip.NewReader(br)
		if gerr != nil {
			return nil, fmt.Errorf("trace: gzip stream: %w", gerr)
		}
		defer gz.Close()
		return ReadAny(gz)
	case len(head) == 0 && err != nil:
		if err == io.EOF {
			return nil, fmt.Errorf("trace: empty stream")
		}
		return nil, fmt.Errorf("trace: read header: %w", err)
	case err != nil && len(head) < len(magicTB) && bytes.HasPrefix(magicTB, head):
		// Short stream that is a proper prefix of the TBv1 magic: a
		// truncated binary trace.
		return nil, fmt.Errorf("trace: truncated TBv1 stream (%d bytes)", len(head))
	}
	return nil, fmt.Errorf("trace: not a TBv1 stream (starts %q)", head)
}
