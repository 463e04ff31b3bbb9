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
	"time"
	"unicode/utf8"

	"winlab/internal/machine"
)

// AppendRender appends the probe report for s to dst and returns the
// extended buffer. It allocates only when dst lacks capacity.
func AppendRender(dst []byte, s machine.Snapshot) []byte { return AppendReport(dst, &s) }

// AppendReport is AppendRender from a pointer, so that a hot caller
// renders its snapshot where it lies instead of copying it.
func AppendReport(dst []byte, s *machine.Snapshot) []byte {
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
	// Constant divisors, one case per precision: the compiler turns them
	// into multiplications.
	switch prec {
	case 0:
		return strconv.AppendUint(dst, q, 10)
	case 1:
		return append(strconv.AppendUint(dst, q/10, 10), '.', byte('0'+q%10))
	case 2:
		f := q % 100
		return append(strconv.AppendUint(dst, q/100, 10), '.', byte('0'+f/10), byte('0'+f%10))
	}
	f := q % 1000
	return append(strconv.AppendUint(dst, q/1000, 10), '.', byte('0'+f/100), byte('0'+f/10%10), byte('0'+f%10))
}

// scale10 holds 10^prec for the precisions appendFixed formats itself.
var scale10 = [...]uint64{1, 10, 100, 1000}

func appendTimeKV(dst []byte, key string, t time.Time) []byte {
	dst = append(dst, key...)
	dst = appendTime(dst, t)
	return append(dst, '\n')
}

// appendTime appends t the way t.UTC().AppendFormat(dst, time.RFC3339)
// does — "2006-01-02T15:04:05Z", whole seconds — from its Unix seconds
// with integer civil-date arithmetic. Years outside 0000–9999, which the
// layout prints differently, go to AppendFormat.
func appendTime(dst []byte, t time.Time) []byte {
	sec := t.Unix()
	days, sod := sec/86400, sec%86400
	if sod < 0 {
		days, sod = days-1, sod+86400
	}
	y, m, d := civilDate(days)
	if y < 0 || y > 9999 {
		return t.UTC().AppendFormat(dst, timeLayout)
	}
	hh, mm, ss := sod/3600, sod/60%60, sod%60
	return append(dst,
		byte('0'+y/1000), byte('0'+y/100%10), byte('0'+y/10%10), byte('0'+y%10), '-',
		byte('0'+m/10), byte('0'+m%10), '-', byte('0'+d/10), byte('0'+d%10), 'T',
		byte('0'+hh/10), byte('0'+hh%10), ':', byte('0'+mm/10), byte('0'+mm%10), ':',
		byte('0'+ss/10), byte('0'+ss%10), 'Z')
}

// civilDate converts days since 1970-01-01 to a proleptic Gregorian
// date, and civilDays converts back (H. Hinnant's days_from_civil and
// civil_from_days: 400-year eras of 146,097 days, years starting in March
// so that the leap day comes last).
func civilDate(days int64) (y, m, d int64) {
	z := days + 719468
	era := z / 146097
	if z < 0 && z%146097 != 0 {
		era--
	}
	doe := z - era*146097
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365
	doy := doe - (365*yoe + yoe/4 - yoe/100)
	mp := (5*doy + 2) / 153
	d = doy - (153*mp+2)/5 + 1
	m = mp + 3
	if m > 12 {
		m -= 12
	}
	y = yoe + era*400
	if m <= 2 {
		y++
	}
	return y, m, d
}

func civilDays(y, m, d int64) int64 {
	if m <= 2 {
		y--
	}
	era := y / 400
	if y < 0 && y%400 != 0 {
		era--
	}
	yoe := y - era*400
	mp := m - 3
	if m <= 2 {
		mp = m + 9
	}
	doy := (153*mp+2)/5 + d - 1
	return era*146097 + yoe*365 + yoe/4 - yoe/100 + doy - 719468
}

// ---------------------------------------------------------------------------
// Parser.

// internMax bounds the parser's string-intern table; macSetsMax bounds the
// MAC-set cache. Both exist so adversarial input cannot grow a parser
// without limit — past the cap the parser still works, it just allocates
// fresh strings. The static-block memo has no cap of its own: it holds one
// entry per collector target, so the fleet bounds it.
const (
	internMax  = 4096
	macSetsMax = 1024
)

// Parser is a reusable probe-report parser. It slices the input in place
// and interns repeated strings, so re-parsing reports from the same fleet
// performs zero allocations on the happy path. A Parser is not safe for
// concurrent use.
//
// The parse is predictive: it tries the literal "key: " prefix of the key
// AppendRender writes next before anything else, and only on a miss falls
// back to trimming the line, finding the colon and switching on the key,
// so reordered or hand-written reports parse exactly as before. Given the
// collector's target (ParseTarget) it also memoises each target's static
// block (DESIGN.md §8.5).
//
// Snapshots returned by a Parser share interned strings and MAC slices
// with other snapshots from the same Parser — treat Snapshot.MACs as
// read-only.
type Parser struct {
	intern  map[string]string
	macSets map[string][]string
	macs    []macEntry
	macKey  []byte

	// memo holds one entry per target, in the order targets were first
	// recorded; memoIdx finds a target's entry.
	memo    []memoEntry
	memoIdx map[string]int32
}

type macEntry struct {
	idx int
	val string
}

// memoEntry is one target's last static block — the report lines from
// "os: " through "disk.0.size.gb: ", newline included — and what parsing
// it produced. Byte-identical bytes at a line start replay these fields
// instead of being parsed again.
type memoEntry struct {
	block []byte
	lines int

	os, cpuModel, serial string
	cpuGHz, diskGB       float64
	ramMB, swapMB        int
	macs                 []macEntry // the block's net.N.mac entries, one per index
	macSet               []string   // macs as Snapshot.MACs, for a report with no other MAC line
}

// NewParser returns an empty parser.
func NewParser() *Parser {
	return &Parser{
		intern:  make(map[string]string),
		macSets: make(map[string][]string),
	}
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

// field is a report key the parser knows. The constants run in the order
// AppendRender writes the keys, so the key expected after f is f+1 — except
// after a MAC line, which may be followed by another.
type field uint8

const (
	fNone field = iota // unknown key: ignored for forward compatibility
	fMachine
	fLab
	fTime
	fOS
	fCPUModel
	fCPUMHz
	fMemTotal
	fSwapTotal
	fMAC // net.N.mac
	fSerial
	fDiskSize
	fCycles
	fPowerOn
	fBoot
	fUptime
	fIdle
	fMemLoad
	fSwapLoad
	fFreeDisk
	fSent
	fRecv
	fUser
	fSessionStart
	fEnd // past the last key a report has
)

// keyPrefix is each field's line prefix as AppendRender writes it.
var keyPrefix = [fEnd]string{
	fMachine:      "machine: ",
	fLab:          "lab: ",
	fTime:         "time: ",
	fOS:           "os: ",
	fCPUModel:     "cpu.model: ",
	fCPUMHz:       "cpu.mhz: ",
	fMemTotal:     "mem.total.mb: ",
	fSwapTotal:    "swap.total.mb: ",
	fMAC:          "net.N.mac: ", // a pattern, matched by macPrefix
	fSerial:       "disk.0.serial: ",
	fDiskSize:     "disk.0.size.gb: ",
	fCycles:       "disk.0.smart.cycles: ",
	fPowerOn:      "disk.0.smart.poweron.hours: ",
	fBoot:         "boot.time: ",
	fUptime:       "uptime.sec: ",
	fIdle:         "cpu.idle.sec: ",
	fMemLoad:      "mem.load.pct: ",
	fSwapLoad:     "swap.load.pct: ",
	fFreeDisk:     "disk.free.gb: ",
	fSent:         "net.sent.bytes: ",
	fRecv:         "net.recv.bytes: ",
	fUser:         "session.user: ",
	fSessionStart: "session.start: ",
}

// keyField maps a trimmed key to its field and, for net.N.mac, N.
func keyField(key []byte) (field, int) {
	for f := fMachine; f < fEnd; f++ {
		if pre := keyPrefix[f]; f != fMAC && string(key) == pre[:len(pre)-2] {
			return f, 0
		}
	}
	if n, ok := macIndexB(key); ok {
		return fMAC, n
	}
	return fNone, 0
}

// predict matches the line at the start of rest against the key expected
// next. On a hit it returns the field, the offset of its value and (for a
// MAC line) its index; n is 0 on a miss. A hit finds exactly what the
// general path would on the same line: the prefix holds no whitespace, no
// newline and the line's first colon.
func predict(rest []byte, next field) (f field, n, mac int) {
	if next == fMAC {
		if n, mac := macPrefix(rest); n > 0 {
			return fMAC, n, mac
		}
		next = fSerial
	}
	if next >= fEnd {
		return fNone, 0, 0
	}
	pre := keyPrefix[next]
	if len(rest) < len(pre) || string(rest[:len(pre)]) != pre {
		return fNone, 0, 0
	}
	return next, len(pre), 0
}

// macPrefix matches a "net.N.mac: " prefix the way the general path reads
// the key (macIndexB's index rules) and returns its length and N; the
// length is 0 when rest does not start with one.
func macPrefix(rest []byte) (n, idx int) {
	if len(rest) < len("net.0.mac: ") || string(rest[:4]) != "net." {
		return 0, 0
	}
	i := 4
	for ; i < len(rest) && rest[i]-'0' <= 9; i++ {
		idx = idx*10 + int(rest[i]-'0')
		if idx > 1<<20 {
			return 0, 0
		}
	}
	if i == 4 || len(rest)-i < len(".mac: ") || string(rest[i:i+6]) != ".mac: " {
		return 0, 0
	}
	return i + 6, idx
}

// trim is bytes.TrimSpace, called only when the first or last byte could
// be whitespace: an ASCII space or control byte, or a byte of a multi-byte
// rune (which might be Unicode space).
func trim(b []byte) []byte {
	if len(b) == 0 || b[0]-'!' < utf8.RuneSelf-'!' && b[len(b)-1]-'!' < utf8.RuneSelf-'!' {
		return b
	}
	return bytes.TrimSpace(b)
}

// ParseBytes decodes a probe report back into a snapshot, slicing data in
// place. Unknown keys are ignored so the format can grow; missing
// mandatory keys are an error. data is not retained and may be reused by
// the caller after the call returns. It is ParseTarget without a target:
// nothing is memoised.
func (p *Parser) ParseBytes(data []byte) (machine.Snapshot, error) {
	var s machine.Snapshot
	err := p.parse(&s, "", data)
	return s, err
}

// ParseTarget is ParseBytes for a report the collector fetched from
// target, a machine ID of its fleet. A "machine:" line equal to target
// takes the target string itself, and the target's static block is
// memoised: when a report's lines from "os: " through "disk.0.size.gb: "
// are byte-identical to the last such block recorded for target, the
// fields recorded from it are replayed instead of parsed; any other block
// parses as usual and replaces the entry. The result is the one
// ParseBytes returns for the same bytes. The memo keeps one entry per
// target, so target must come from a bounded set — the collector's fleet —
// and reports are found fastest in the order they were first seen.
func (p *Parser) ParseTarget(target string, data []byte) (machine.Snapshot, error) {
	var s machine.Snapshot
	err := p.parse(&s, target, data)
	return s, err
}

// allSeen has every mandatory-key bit set.
const allSeen = seenMachine | seenTime | seenBoot | seenUptime | seenIdle

func (p *Parser) parse(s *machine.Snapshot, target string, data []byte) error {
	ln, rest, ok := nextLine(data)
	if !ok {
		return &ParseError{Line: 1, Msg: "empty report"}
	}
	line := 1
	if string(ln) != Version {
		if got := bytes.TrimSpace(ln); string(got) != Version {
			return &ParseError{Line: 1, Msg: fmt.Sprintf("bad magic %q", got)}
		}
	}
	var (
		seen   uint
		next   = fMachine
		memo   *memoEntry // target's entry, when it has one
		rec    []byte     // from the start of the static block being recorded; nil when not recording
		macSet []string   // the memo's MAC set, while the report's MACs are exactly its entries
	)
	// With a target the static block's strings belong to its memo entry:
	// they stay out of the intern table, which a fleet's serials and MAC
	// addresses would otherwise fill, crowding out the labs and users that
	// do repeat across machines.
	intern := target == ""
	if !intern {
		memo = p.lookup(target)
	}
	p.macs = p.macs[:0]
	for len(rest) > 0 {
		if memo != nil && rest[0] == 'o' && bytes.HasPrefix(rest, memo.block) {
			macSet = p.replay(s, memo, macSet)
			rec = nil
			rest = rest[len(memo.block):]
			line += memo.lines
			next = fCycles
			continue
		}
		start := rest
		line++
		var val []byte
		f, n, mac := predict(rest, next)
		hit := n > 0
		if hit {
			// The prefix is the line's key: only the value is left to
			// find the end of.
			i := n
			for i < len(rest) && rest[i] != '\n' {
				i++
			}
			val = rest[n:i]
			if len(val) > 0 && (val[0]-'!' >= utf8.RuneSelf-'!' || val[len(val)-1]-'!' >= utf8.RuneSelf-'!') {
				val = bytes.TrimSpace(val) // trim(val), its test written out to stay inline
			}
			rest = rest[min(i+1, len(rest)):]
		} else {
			rec = nil
			ln, rest, _ = nextLine(rest)
			text := trim(ln)
			if len(text) == 0 {
				continue
			}
			colon := bytes.IndexByte(text, ':')
			if colon < 0 {
				return &ParseError{Line: line, Msg: "missing ':'"}
			}
			f, mac = keyField(trim(text[:colon]))
			val = trim(text[colon+1:])
		}
		var err error
		switch f {
		case fMachine:
			if target != "" && string(val) == target {
				s.ID = target
			} else {
				s.ID = p.str(val, true)
			}
			seen |= seenMachine
		case fLab:
			s.Lab = p.str(val, true)
		case fTime:
			s.Time, err = parseTimeB(val)
			seen |= seenTime
		case fOS:
			s.OS = p.str(val, intern)
		case fCPUModel:
			s.CPUModel = p.str(val, intern)
		case fCPUMHz:
			var mhz int64
			mhz, err = parseIntB(val)
			s.CPUGHz = float64(mhz) / 1000
		case fMemTotal:
			s.RAMMB, err = parseIntB32(val)
		case fSwapTotal:
			s.SwapMB, err = parseIntB32(val)
		case fMAC:
			p.addMAC(mac, p.str(val, intern))
			macSet = nil
		case fSerial:
			s.Serial = p.str(val, intern)
		case fDiskSize:
			s.DiskGB, err = parseFloatB(val)
		case fCycles:
			s.PowerCycles, err = parseIntB(val)
		case fPowerOn:
			s.PowerOnHours, err = parseIntB(val)
		case fBoot:
			s.BootTime, err = parseTimeB(val)
			seen |= seenBoot
		case fUptime:
			s.Uptime, err = parseSecondsB(val)
			seen |= seenUptime
		case fIdle:
			s.CPUIdle, err = parseSecondsB(val)
			seen |= seenIdle
		case fMemLoad:
			s.MemLoadPct, err = parseIntB32(val)
		case fSwapLoad:
			s.SwapLoadPct, err = parseIntB32(val)
		case fFreeDisk:
			s.FreeDiskGB, err = parseFloatB(val)
		case fSent:
			s.SentBytes, err = parseUintB(val)
		case fRecv:
			s.RecvBytes, err = parseUintB(val)
		case fUser:
			s.SessionUser = p.str(val, true)
		case fSessionStart:
			s.SessionStart, err = parseTimeB(val)
		default:
			continue // unknown key: the prediction stands
		}
		if err != nil {
			key := keyPrefix[f]
			return &ParseError{Line: line, Msg: fmt.Sprintf("key %q: %v", key[:len(key)-2], err)}
		}
		if f != fMAC {
			next = f + 1
		} else {
			next = fMAC
		}
		// Record the static block: it starts at a predicted "os: " line
		// with no MAC collected yet and ends at the predicted size line,
		// every line between predicted too — so each static field is set
		// exactly once, in render order, and its bytes say it all.
		switch {
		case !hit || target == "":
		case f == fOS && len(p.macs) == 0:
			rec = start
			continue
		case rec != nil && f > fOS && f < fDiskSize:
			continue
		case rec != nil && f == fDiskSize && start[len(start)-len(rest)-1] == '\n':
			p.record(target, memo, s, rec[:len(rec)-len(rest)])
		}
		rec = nil
	}
	if seen != allSeen {
		for _, mk := range mandatoryKeys {
			if seen&mk.bit == 0 {
				return &ParseError{Line: line, Msg: fmt.Sprintf("missing mandatory key %q", mk.key)}
			}
		}
	}
	if macSet != nil {
		s.MACs = macSet
	} else if len(p.macs) > 0 {
		s.MACs = p.macSlice()
	}
	return nil
}

// lookup finds target's memo entry, or nil.
func (p *Parser) lookup(target string) *memoEntry {
	if i, ok := p.memoIdx[target]; ok {
		return &p.memo[i]
	}
	return nil
}

// record stores block and the static fields it set into target's memo
// entry e, creating the entry when target has none.
func (p *Parser) record(target string, e *memoEntry, s *machine.Snapshot, block []byte) {
	if e == nil {
		if p.memoIdx == nil {
			p.memoIdx = make(map[string]int32)
		}
		p.memoIdx[target] = int32(len(p.memo))
		p.memo = append(p.memo, memoEntry{})
		e = &p.memo[len(p.memo)-1]
	}
	e.block = append(e.block[:0], block...)
	e.lines = bytes.Count(block, []byte{'\n'})
	e.os, e.cpuModel, e.serial = s.OS, s.CPUModel, s.Serial
	e.cpuGHz, e.diskGB = s.CPUGHz, s.DiskGB
	e.ramMB, e.swapMB = s.RAMMB, s.SwapMB
	e.macs = append(e.macs[:0], p.macs...)
	e.macSet = nil
	if len(e.macs) > 0 {
		e.macSet = make([]string, len(e.macs))
		sorted := append([]macEntry(nil), e.macs...)
		sortMACs(sorted)
		for i, m := range sorted {
			e.macSet[i] = m.val
		}
	}
}

// replay applies e's static fields to s as parsing e.block at this point
// would, and returns the MAC set the report now has when it is exactly
// e's (macSet otherwise, nil once MAC lines mix).
func (p *Parser) replay(s *machine.Snapshot, e *memoEntry, macSet []string) []string {
	s.OS, s.CPUModel, s.Serial = e.os, e.cpuModel, e.serial
	s.CPUGHz, s.DiskGB = e.cpuGHz, e.diskGB
	s.RAMMB, s.SwapMB = e.ramMB, e.swapMB
	if len(e.macs) == 0 {
		return macSet
	}
	if len(p.macs) == 0 {
		p.macs = append(p.macs, e.macs...)
		return e.macSet
	}
	for _, m := range e.macs {
		p.addMAC(m.idx, m.val)
	}
	return nil
}

// addMAC records one net.N.mac entry, overwriting a duplicate index like
// the legacy map-based collection did.
func (p *Parser) addMAC(idx int, v string) {
	for i := range p.macs {
		if p.macs[i].idx == idx {
			p.macs[i].val = v
			return
		}
	}
	p.macs = append(p.macs, macEntry{idx: idx, val: v})
}

// sortMACs orders entries by index. Insertion sort: reports emit indexes
// in order, so this is O(n).
func sortMACs(macs []macEntry) {
	for i := 1; i < len(macs); i++ {
		for j := i; j > 0 && macs[j-1].idx > macs[j].idx; j-- {
			macs[j-1], macs[j] = macs[j], macs[j-1]
		}
	}
}

// macSlice sorts the collected MAC entries by index and returns the
// (cached) []string for that exact sequence, so a fleet's handful of
// distinct MAC sets cost one allocation each, ever.
func (p *Parser) macSlice() []string {
	sortMACs(p.macs)
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

// str returns b as a string. The intern table's map lookup with a
// string(b) key compiles to a no-allocation probe; a value not found there
// is copied, and enters the table when intern is set.
func (p *Parser) str(b []byte, intern bool) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := p.intern[string(b)]; ok {
		return s
	}
	s := string(b)
	if intern && len(p.intern) < internMax {
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
	// A plain loop: report lines are a few dozen bytes, shorter than
	// bytes.IndexByte's vector setup pays for.
	for i, c := range data {
		if c == '\n' {
			return data[:i], data[i+1:], true
		}
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
			if sec = sec*10 + uint64(d); sec > math.MaxInt64/uint64(time.Second) {
				fast = false
				break
			}
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
		// sec ≤ MaxInt64/1e9 keeps the sum inside a uint64; past
		// MaxInt64 it would wrap a Duration, so it saturates below.
		if ns := sec*uint64(time.Second) + fracNS; ns <= math.MaxInt64 {
			if neg {
				return -time.Duration(ns), nil
			}
			return time.Duration(ns), nil
		}
	}
	f, err := parseFloatB(b)
	if err != nil {
		return 0, err
	}
	// Past what a Duration holds the conversion is implementation-defined;
	// saturate instead, so that Render∘Parse stays a fixed point there too
	// (found by FuzzParseBytes: "cpu.idle.sec:10000000000").
	switch ns := f * float64(time.Second); {
	case ns >= math.MaxInt64:
		return math.MaxInt64, nil
	case ns <= math.MinInt64:
		return math.MinInt64, nil
	case ns != ns:
		return 0, nil
	default:
		return time.Duration(ns), nil
	}
}

// parseTimeB parses an RFC 3339 timestamp. The fast path handles the
// exact shape the renderer emits ("2006-01-02T15:04:05Z") with integer
// civil-date arithmetic, accepting exactly the real calendar dates;
// anything else falls back to time.Parse.
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
			mon >= 1 && mon <= 12 && day >= 1 && day <= daysIn(mon, year) &&
			hh <= 23 && mm <= 59 && ss <= 59 {
			days := civilDays(int64(year), int64(mon), int64(day))
			return time.Unix(days*86400+int64(hh*3600+mm*60+ss), 0).UTC(), nil
		}
	}
	t, err := time.Parse(timeLayout, string(b))
	if err != nil {
		return time.Time{}, numError("invalid timestamp", b)
	}
	return t, nil
}

// daysIn returns the length of month mon (1–12) of year.
func daysIn(mon, year int) int {
	if mon == 2 {
		if year%4 == 0 && (year%100 != 0 || year%400 == 0) {
			return 29
		}
		return 28
	}
	return 30 + (mon+mon/8)%2
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
