package probe

import (
	"bytes"
	"fmt"
	"time"

	"winlab/internal/machine"
)

// The parser as it stood before the predictive parse and the static-block
// memo, kept verbatim (renamed) as the differential oracle: FuzzParseBytes
// and the ddc memo tests hold Parser.ParseBytes and Parser.ParseTarget to
// it on the snapshot, the error line and the error message. The number
// parsers it calls are shared; its timestamp parser is the old time.Date
// one.

type oracleParser struct {
	intern  map[string]string
	macSets map[string][]string
	macs    []macEntry
	macKey  []byte
}

func newOracleParser() *oracleParser {
	return &oracleParser{
		intern:  make(map[string]string),
		macSets: make(map[string][]string),
	}
}

// ParseBytes decodes a probe report back into a snapshot, slicing data in
// place. Unknown keys are ignored so the format can grow; missing
// mandatory keys are an error. data is not retained and may be reused by
// the caller after the call returns.
func (p *oracleParser) ParseBytes(data []byte) (machine.Snapshot, error) {
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
			s.Time, err = oracleParseTimeB(val)
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
			s.BootTime, err = oracleParseTimeB(val)
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
			s.SessionStart, err = oracleParseTimeB(val)
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
func (p *oracleParser) addMAC(idx int, val []byte) {
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
func (p *oracleParser) macSlice() []string {
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
func (p *oracleParser) str(b []byte) string {
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

// oracleParseTimeB parses an RFC 3339 timestamp. The fast path handles the
// exact shape the renderer emits ("2006-01-02T15:04:05Z"); anything else
// falls back to time.Parse.
func oracleParseTimeB(b []byte) (time.Time, error) {
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
