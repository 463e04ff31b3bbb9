// Fast probe codec: an append-based encoder and an in-place, byte-slicing
// parser for the W32Probe report format.
//
// The text format is the wire contract between fleet and collector (see
// DESIGN.md §8.5) and stays byte-identical to the original
// fmt.Fprintf-based renderer — the golden test pins that. What changed is
// the cost model: AppendRender writes into a caller-supplied buffer and
// performs zero allocations when the buffer has capacity, and ParseBytes
// slices the input in place (no string(data) copy, no bufio.Scanner, no
// per-report maps), interning the handful of repeated strings (machine
// IDs, labs, OS names, users, MAC sets) so the steady-state collection
// loop of a fleet re-parses reports without allocating at all.
package probe

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"

	"winlab/internal/machine"
)

// AppendRender appends the probe report for s to dst and returns the
// extended buffer. It allocates only when dst lacks capacity; the output
// is byte-identical to Render.
func AppendRender(dst []byte, s machine.Snapshot) []byte {
	dst = append(dst, Version...)
	dst = append(dst, '\n')
	dst = appendStrKV(dst, "machine: ", s.ID)
	dst = appendStrKV(dst, "lab: ", s.Lab)
	dst = appendTimeKV(dst, "time: ", s.Time)
	dst = appendStrKV(dst, "os: ", s.OS)
	dst = appendStrKV(dst, "cpu.model: ", s.CPUModel)
	dst = appendIntKV(dst, "cpu.mhz: ", int64(renderMHz(s.CPUGHz)))
	dst = appendIntKV(dst, "mem.total.mb: ", int64(s.RAMMB))
	dst = appendIntKV(dst, "swap.total.mb: ", int64(s.SwapMB))
	for i, mac := range s.MACs {
		dst = append(dst, "net."...)
		dst = strconv.AppendInt(dst, int64(i), 10)
		dst = append(dst, ".mac: "...)
		dst = append(dst, mac...)
		dst = append(dst, '\n')
	}
	dst = appendStrKV(dst, "disk.0.serial: ", s.Serial)
	dst = appendFloatKV(dst, "disk.0.size.gb: ", s.DiskGB, 2)
	dst = appendIntKV(dst, "disk.0.smart.cycles: ", s.PowerCycles)
	dst = appendIntKV(dst, "disk.0.smart.poweron.hours: ", s.PowerOnHours)
	dst = appendTimeKV(dst, "boot.time: ", s.BootTime)
	dst = appendFloatKV(dst, "uptime.sec: ", s.Uptime.Seconds(), 1)
	dst = appendFloatKV(dst, "cpu.idle.sec: ", s.CPUIdle.Seconds(), 1)
	dst = appendIntKV(dst, "mem.load.pct: ", int64(s.MemLoadPct))
	dst = appendIntKV(dst, "swap.load.pct: ", int64(s.SwapLoadPct))
	dst = appendFloatKV(dst, "disk.free.gb: ", s.FreeDiskGB, 3)
	dst = appendUintKV(dst, "net.sent.bytes: ", s.SentBytes)
	dst = appendUintKV(dst, "net.recv.bytes: ", s.RecvBytes)
	if s.HasSession() {
		dst = appendStrKV(dst, "session.user: ", s.SessionUser)
		dst = appendTimeKV(dst, "session.start: ", s.SessionStart)
	}
	return dst
}

// renderMHz quantises the GHz clock to whole MHz. math.Round (half away
// from zero) matches the historical int(g*1000+0.5) for every non-negative
// clock but does not drift for negative inputs (the +0.5 trick truncates
// toward zero there); with it, Render∘Parse is the identity on any CPUGHz
// that is already MHz-quantised — see TestRenderParseFixedPoint.
func renderMHz(ghz float64) int {
	return int(math.Round(ghz * 1000))
}

func appendStrKV(dst []byte, key, val string) []byte {
	dst = append(dst, key...)
	dst = append(dst, val...)
	return append(dst, '\n')
}

func appendIntKV(dst []byte, key string, val int64) []byte {
	dst = append(dst, key...)
	dst = strconv.AppendInt(dst, val, 10)
	return append(dst, '\n')
}

func appendUintKV(dst []byte, key string, val uint64) []byte {
	dst = append(dst, key...)
	dst = strconv.AppendUint(dst, val, 10)
	return append(dst, '\n')
}

func appendFloatKV(dst []byte, key string, val float64, prec int) []byte {
	dst = append(dst, key...)
	dst = appendFixed(dst, val, prec)
	return append(dst, '\n')
}

// appendFixed appends val with prec decimals, byte for byte what
// strconv.AppendFloat(dst, val, 'f', prec, 64) appends — which, having no
// short path for 'f' with a precision, does it in multiprecision decimal.
// A float64 is m × 2^-shift with m < 2^53, so for prec ≤ 3 the scaled
// value m × 10^prec fits in 63 bits and the quotient, the exact remainder
// and the round-half-to-even decision (strconv's rule, on the same exact
// value) are integer operations. Everything outside that envelope —
// negative or non-finite values, subnormals, magnitudes of 2^53 and
// above, a shift that leaves no integer bits — goes to strconv.
func appendFixed(dst []byte, val float64, prec int) []byte {
	bits := math.Float64bits(val)
	exp := int(bits >> 52) // sign bit included: a negative value fails the range test below
	shift := 1075 - exp    // val = m × 2^-shift
	if bits != 0 && (exp == 0 || shift < 0 || shift > 63) || uint(prec) >= uint(len(scale10)) {
		return strconv.AppendFloat(dst, val, 'f', prec, 64)
	}
	var q uint64
	if bits != 0 {
		n := (bits&(1<<52-1) | 1<<52) * scale10[prec]
		q = n >> shift
		if shift > 0 {
			rem, half := n&(1<<shift-1), uint64(1)<<(shift-1)
			if rem > half || rem == half && q&1 == 1 {
				q++
			}
		}
	}
	dst = strconv.AppendUint(dst, q/scale10[prec], 10)
	if prec > 0 {
		dst = append(dst, '.')
		for frac, p := q%scale10[prec], prec-1; p >= 0; p-- {
			dst = append(dst, byte('0'+frac/scale10[p]%10))
		}
	}
	return dst
}

// scale10 holds 10^prec for the precisions appendFixed formats itself.
var scale10 = [...]uint64{1, 10, 100, 1000}

func appendTimeKV(dst []byte, key string, t time.Time) []byte {
	dst = append(dst, key...)
	dst = t.UTC().AppendFormat(dst, timeLayout)
	return append(dst, '\n')
}

// ---------------------------------------------------------------------------
// Parser.

// internMax bounds the parser's string-intern table; macSetsMax bounds the
// MAC-set cache. Both exist so adversarial input cannot grow a pooled
// parser without limit — past the cap the parser still works, it just
// allocates fresh strings.
const (
	internMax  = 4096
	macSetsMax = 1024
)

// Parser is a reusable probe-report parser. It slices the input in place
// and interns repeated strings, so re-parsing reports from the same fleet
// performs zero allocations on the happy path. A Parser is not safe for
// concurrent use; pool one per worker (the package-level ParseBytes does
// exactly that).
//
// Snapshots returned by a Parser share interned strings and MAC slices
// with other snapshots from the same Parser — treat Snapshot.MACs as
// read-only.
type Parser struct {
	intern  map[string]string
	macSets map[string][]string
	macs    []macEntry
	macKey  []byte
}

type macEntry struct {
	idx int
	val string
}

// NewParser returns an empty parser.
func NewParser() *Parser {
	return &Parser{
		intern:  make(map[string]string),
		macSets: make(map[string][]string),
	}
}

var parserPool = sync.Pool{New: func() any { return NewParser() }}

// ParseBytes decodes a probe report using a pooled Parser. Semantics are
// identical to Parse; the input is never retained.
func ParseBytes(data []byte) (machine.Snapshot, error) {
	p := parserPool.Get().(*Parser)
	s, err := p.ParseBytes(data)
	parserPool.Put(p)
	return s, err
}

// mandatory-key bits.
const (
	seenMachine = 1 << iota
	seenTime
	seenBoot
	seenUptime
	seenIdle
)

// mandatoryKeys lists the report keys that must be present, in the order
// the legacy parser checked them (error messages are stable).
var mandatoryKeys = []struct {
	bit uint
	key string
}{
	{seenMachine, "machine"},
	{seenTime, "time"},
	{seenBoot, "boot.time"},
	{seenUptime, "uptime.sec"},
	{seenIdle, "cpu.idle.sec"},
}

// ParseBytes decodes a probe report back into a snapshot, slicing data in
// place. Unknown keys are ignored so the format can grow; missing
// mandatory keys are an error. data is not retained and may be reused by
// the caller after the call returns.
func (p *Parser) ParseBytes(data []byte) (machine.Snapshot, error) {
	var s machine.Snapshot
	ln, rest, ok := nextLine(data)
	if !ok {
		return s, &ParseError{Line: 1, Msg: "empty report"}
	}
	line := 1
	if got := bytes.TrimSpace(ln); string(got) != Version {
		return s, &ParseError{Line: 1, Msg: fmt.Sprintf("bad magic %q", got)}
	}
	var seen uint
	p.macs = p.macs[:0]
	for {
		ln, rest, ok = nextLine(rest)
		if !ok {
			break
		}
		line++
		text := bytes.TrimSpace(ln)
		if len(text) == 0 {
			continue
		}
		colon := bytes.IndexByte(text, ':')
		if colon < 0 {
			return s, &ParseError{Line: line, Msg: "missing ':'"}
		}
		key := bytes.TrimSpace(text[:colon])
		val := bytes.TrimSpace(text[colon+1:])
		var err error
		switch string(key) {
		case "machine":
			s.ID = p.str(val)
			seen |= seenMachine
		case "lab":
			s.Lab = p.str(val)
		case "time":
			s.Time, err = parseTimeB(val)
			seen |= seenTime
		case "os":
			s.OS = p.str(val)
		case "cpu.model":
			s.CPUModel = p.str(val)
		case "cpu.mhz":
			var mhz int64
			mhz, err = parseIntB(val)
			s.CPUGHz = float64(mhz) / 1000
		case "mem.total.mb":
			s.RAMMB, err = parseIntB32(val)
		case "swap.total.mb":
			s.SwapMB, err = parseIntB32(val)
		case "disk.0.serial":
			s.Serial = p.str(val)
		case "disk.0.size.gb":
			s.DiskGB, err = parseFloatB(val)
		case "disk.0.smart.cycles":
			s.PowerCycles, err = parseIntB(val)
		case "disk.0.smart.poweron.hours":
			s.PowerOnHours, err = parseIntB(val)
		case "boot.time":
			s.BootTime, err = parseTimeB(val)
			seen |= seenBoot
		case "uptime.sec":
			s.Uptime, err = parseSecondsB(val)
			seen |= seenUptime
		case "cpu.idle.sec":
			s.CPUIdle, err = parseSecondsB(val)
			seen |= seenIdle
		case "mem.load.pct":
			s.MemLoadPct, err = parseIntB32(val)
		case "swap.load.pct":
			s.SwapLoadPct, err = parseIntB32(val)
		case "disk.free.gb":
			s.FreeDiskGB, err = parseFloatB(val)
		case "net.sent.bytes":
			s.SentBytes, err = parseUintB(val)
		case "net.recv.bytes":
			s.RecvBytes, err = parseUintB(val)
		case "session.user":
			s.SessionUser = p.str(val)
		case "session.start":
			s.SessionStart, err = parseTimeB(val)
		default:
			if n, macOK := macIndexB(key); macOK {
				p.addMAC(n, val)
			}
			// Unknown keys are tolerated for forward compatibility.
		}
		if err != nil {
			return s, &ParseError{Line: line, Msg: fmt.Sprintf("key %q: %v", key, err)}
		}
	}
	for _, mk := range mandatoryKeys {
		if seen&mk.bit == 0 {
			return s, &ParseError{Line: line, Msg: fmt.Sprintf("missing mandatory key %q", mk.key)}
		}
	}
	if len(p.macs) > 0 {
		s.MACs = p.macSlice()
	}
	return s, nil
}

// addMAC records one net.N.mac entry, overwriting a duplicate index like
// the legacy map-based collection did.
func (p *Parser) addMAC(idx int, val []byte) {
	v := p.str(val)
	for i := range p.macs {
		if p.macs[i].idx == idx {
			p.macs[i].val = v
			return
		}
	}
	p.macs = append(p.macs, macEntry{idx: idx, val: v})
}

// macSlice sorts the collected MAC entries by index and returns the
// (cached) []string for that exact sequence, so a fleet's handful of
// distinct MAC sets cost one allocation each, ever.
func (p *Parser) macSlice() []string {
	// Insertion sort: reports emit indexes in order, so this is O(n).
	for i := 1; i < len(p.macs); i++ {
		for j := i; j > 0 && p.macs[j-1].idx > p.macs[j].idx; j-- {
			p.macs[j-1], p.macs[j] = p.macs[j], p.macs[j-1]
		}
	}
	p.macKey = p.macKey[:0]
	for _, e := range p.macs {
		p.macKey = append(p.macKey, e.val...)
		p.macKey = append(p.macKey, '\n')
	}
	if set, ok := p.macSets[string(p.macKey)]; ok {
		return set
	}
	set := make([]string, len(p.macs))
	for i, e := range p.macs {
		set[i] = e.val
	}
	if len(p.macSets) < macSetsMax {
		p.macSets[string(p.macKey)] = set
	}
	return set
}

// str interns a byte-slice as a string. The map lookup with a string(b)
// key compiles to a no-allocation probe; only the first occurrence of a
// value pays for the copy.
func (p *Parser) str(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := p.intern[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(p.intern) < internMax {
		p.intern[s] = s
	}
	return s
}

// nextLine splits off the next line (without its trailing '\n'). ok is
// false once data is exhausted; a final line without a newline is still
// returned.
func nextLine(data []byte) (line, rest []byte, ok bool) {
	if len(data) == 0 {
		return nil, nil, false
	}
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return data[:i], data[i+1:], true
	}
	return data, nil, true
}

// macIndexB recognises "net.N.mac" keys and extracts N. The length guard
// matters: a key like "net.mac" matches both the prefix and the suffix
// with overlap, and must not be sliced (found by FuzzParseBytes).
func macIndexB(key []byte) (int, bool) {
	if len(key) < len("net.0.mac") ||
		!bytes.HasPrefix(key, []byte("net.")) || !bytes.HasSuffix(key, []byte(".mac")) {
		return 0, false
	}
	num := key[4 : len(key)-4]
	if len(num) == 0 {
		return 0, false
	}
	n := 0
	for _, c := range num {
		c -= '0'
		if c > 9 {
			return 0, false
		}
		n = n*10 + int(c)
		if n > 1<<20 {
			return 0, false
		}
	}
	return n, true
}

// ---------------------------------------------------------------------------
// Allocation-free numeric and timestamp parsing over byte slices.

func numError(what string, b []byte) error {
	return fmt.Errorf("parsing %q: %s", b, what)
}

func parseIntB(b []byte) (int64, error) {
	if len(b) == 0 {
		return 0, numError("empty number", b)
	}
	neg := false
	i := 0
	if b[0] == '+' || b[0] == '-' {
		neg = b[0] == '-'
		i++
	}
	if i == len(b) {
		return 0, numError("invalid syntax", b)
	}
	var n uint64
	for ; i < len(b); i++ {
		c := b[i] - '0'
		if c > 9 {
			return 0, numError("invalid syntax", b)
		}
		if n > (math.MaxUint64-uint64(c))/10 {
			return 0, numError("value out of range", b)
		}
		n = n*10 + uint64(c)
	}
	if neg {
		if n > 1<<63 {
			return 0, numError("value out of range", b)
		}
		return -int64(n), nil
	}
	if n > math.MaxInt64 {
		return 0, numError("value out of range", b)
	}
	return int64(n), nil
}

func parseIntB32(b []byte) (int, error) {
	n, err := parseIntB(b)
	return int(n), err
}

func parseUintB(b []byte) (uint64, error) {
	if len(b) == 0 {
		return 0, numError("empty number", b)
	}
	var n uint64
	for i := 0; i < len(b); i++ {
		c := b[i] - '0'
		if c > 9 {
			return 0, numError("invalid syntax", b)
		}
		if n > (math.MaxUint64-uint64(c))/10 {
			return 0, numError("value out of range", b)
		}
		n = n*10 + uint64(c)
	}
	return n, nil
}

// pow10 holds the exact powers of ten the fast float path divides by.
var pow10 = [16]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// parseFloatB parses a plain decimal ([-+]?digits[.digits]) without
// allocating. Mantissas of up to 15 significant digits divide by an exact
// power of ten, which IEEE-754 rounds identically to strconv.ParseFloat;
// anything longer or fancier (exponents, inf/nan) falls back to strconv.
func parseFloatB(b []byte) (float64, error) {
	neg := false
	i := 0
	if i < len(b) && (b[i] == '+' || b[i] == '-') {
		neg = b[i] == '-'
		i++
	}
	var mant uint64
	digits, frac := 0, 0
	seenDot := false
	fast := true
	for ; i < len(b); i++ {
		c := b[i]
		if c == '.' {
			if seenDot {
				fast = false
				break
			}
			seenDot = true
			continue
		}
		d := c - '0'
		if d > 9 || digits >= 15 {
			fast = false
			break
		}
		mant = mant*10 + uint64(d)
		digits++
		if seenDot {
			frac++
		}
	}
	if fast && digits > 0 && i == len(b) {
		f := float64(mant) / pow10[frac]
		if neg {
			f = -f
		}
		return f, nil
	}
	f, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return 0, numError("invalid float", b)
	}
	return f, nil
}

// parseSecondsB parses a decimal number of seconds into a Duration. The
// fast path does the conversion in integer nanoseconds — exact for up to 9
// fractional digits, unlike the historical float64 multiply, which could
// truncate a fraction like "3.3" to 3299999999 ns.
func parseSecondsB(b []byte) (time.Duration, error) {
	neg := false
	i := 0
	if i < len(b) && (b[i] == '+' || b[i] == '-') {
		neg = b[i] == '-'
		i++
	}
	var sec, fracNS uint64
	digits, frac := 0, 0
	seenDot := false
	fast := true
	for ; i < len(b); i++ {
		c := b[i]
		if c == '.' {
			if seenDot {
				fast = false
				break
			}
			seenDot = true
			continue
		}
		d := c - '0'
		if d > 9 {
			fast = false
			break
		}
		digits++
		if !seenDot {
			if sec > (math.MaxInt64/uint64(time.Second)-1)/10 {
				fast = false
				break
			}
			sec = sec*10 + uint64(d)
		} else if frac < 9 {
			fracNS = fracNS*10 + uint64(d)
			frac++
		}
		// Fractional digits beyond ns precision are ignored (truncated),
		// like the float path effectively did.
	}
	if fast && digits > 0 && i == len(b) {
		for k := frac; k < 9; k++ {
			fracNS *= 10
		}
		d := time.Duration(sec)*time.Second + time.Duration(fracNS)
		if neg {
			d = -d
		}
		return d, nil
	}
	f, err := parseFloatB(b)
	if err != nil {
		return 0, err
	}
	return time.Duration(f * float64(time.Second)), nil
}

// parseTimeB parses an RFC 3339 timestamp. The fast path handles the
// exact shape the renderer emits ("2006-01-02T15:04:05Z"); anything else
// falls back to time.Parse.
func parseTimeB(b []byte) (time.Time, error) {
	if len(b) == 20 && b[4] == '-' && b[7] == '-' && b[10] == 'T' &&
		b[13] == ':' && b[16] == ':' && b[19] == 'Z' {
		year, ok1 := atoiFixed(b[0:4])
		mon, ok2 := atoiFixed(b[5:7])
		day, ok3 := atoiFixed(b[8:10])
		hh, ok4 := atoiFixed(b[11:13])
		mm, ok5 := atoiFixed(b[14:16])
		ss, ok6 := atoiFixed(b[17:19])
		if ok1 && ok2 && ok3 && ok4 && ok5 && ok6 &&
			mon >= 1 && mon <= 12 && day >= 1 && day <= 31 &&
			hh <= 23 && mm <= 59 && ss <= 59 {
			t := time.Date(year, time.Month(mon), day, hh, mm, ss, 0, time.UTC)
			// time.Date normalises out-of-range days (Feb 30 → Mar 2);
			// reject those like time.Parse would.
			if t.Day() == day && int(t.Month()) == mon {
				return t, nil
			}
		}
	}
	t, err := time.Parse(timeLayout, string(b))
	if err != nil {
		return time.Time{}, numError("invalid timestamp", b)
	}
	return t, nil
}

func atoiFixed(b []byte) (int, bool) {
	n := 0
	for _, c := range b {
		c -= '0'
		if c > 9 {
			return 0, false
		}
		n = n*10 + int(c)
	}
	return n, true
}
