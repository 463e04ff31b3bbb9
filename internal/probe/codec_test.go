package probe

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"winlab/internal/lab"
	"winlab/internal/machine"
)

// referenceRender is the original fmt.Fprintf-based renderer, kept
// verbatim as the golden oracle: AppendRender must stay byte-identical to
// it, because the probe text is the wire contract between fleet and
// collector (DESIGN.md §8.5).
func referenceRender(s machine.Snapshot) []byte {
	var b strings.Builder
	b.Grow(640)
	fmt.Fprintf(&b, "%s\n", Version)
	fmt.Fprintf(&b, "machine: %s\n", s.ID)
	fmt.Fprintf(&b, "lab: %s\n", s.Lab)
	fmt.Fprintf(&b, "time: %s\n", s.Time.UTC().Format(timeLayout))
	fmt.Fprintf(&b, "os: %s\n", s.OS)
	fmt.Fprintf(&b, "cpu.model: %s\n", s.CPUModel)
	fmt.Fprintf(&b, "cpu.mhz: %d\n", int(s.CPUGHz*1000+0.5))
	fmt.Fprintf(&b, "mem.total.mb: %d\n", s.RAMMB)
	fmt.Fprintf(&b, "swap.total.mb: %d\n", s.SwapMB)
	for i, mac := range s.MACs {
		fmt.Fprintf(&b, "net.%d.mac: %s\n", i, mac)
	}
	fmt.Fprintf(&b, "disk.0.serial: %s\n", s.Serial)
	fmt.Fprintf(&b, "disk.0.size.gb: %.2f\n", s.DiskGB)
	fmt.Fprintf(&b, "disk.0.smart.cycles: %d\n", s.PowerCycles)
	fmt.Fprintf(&b, "disk.0.smart.poweron.hours: %d\n", s.PowerOnHours)
	fmt.Fprintf(&b, "boot.time: %s\n", s.BootTime.UTC().Format(timeLayout))
	fmt.Fprintf(&b, "uptime.sec: %.1f\n", s.Uptime.Seconds())
	fmt.Fprintf(&b, "cpu.idle.sec: %.1f\n", s.CPUIdle.Seconds())
	fmt.Fprintf(&b, "mem.load.pct: %d\n", s.MemLoadPct)
	fmt.Fprintf(&b, "swap.load.pct: %d\n", s.SwapLoadPct)
	fmt.Fprintf(&b, "disk.free.gb: %.3f\n", s.FreeDiskGB)
	fmt.Fprintf(&b, "net.sent.bytes: %d\n", s.SentBytes)
	fmt.Fprintf(&b, "net.recv.bytes: %d\n", s.RecvBytes)
	if s.HasSession() {
		fmt.Fprintf(&b, "session.user: %s\n", s.SessionUser)
		fmt.Fprintf(&b, "session.start: %s\n", s.SessionStart.UTC().Format(timeLayout))
	}
	return []byte(b.String())
}

// fleetSnapshots gathers live snapshots from a freshly built paper fleet:
// the realistic corpus (MAC lists, sessions, fractional idle seconds) the
// codec must handle byte-exactly.
func fleetSnapshots(t testing.TB, seed int64) []machine.Snapshot {
	t.Helper()
	fleet := lab.BuildPaperFleet(seed)
	at := time.Date(2003, 10, 6, 8, 0, 0, 0, time.UTC)
	var sns []machine.Snapshot
	for i, m := range fleet.Machines {
		if i%3 == 0 {
			continue // leave some machines off
		}
		m.PowerOn(at)
		if i%2 == 0 {
			m.Login(at.Add(7*time.Minute), fmt.Sprintf("user%03d", i))
		}
		// Whole-second sample time: the report's RFC 3339 timestamps carry
		// second precision, so sub-second sample instants are (by design)
		// truncated on the wire.
		sn, ok := m.Snapshot(at.Add(83*time.Minute + 42*time.Second))
		if !ok {
			t.Fatalf("machine %s: snapshot failed", m.ID)
		}
		sns = append(sns, sn)
	}
	return sns
}

// TestAppendRenderGolden pins the codec to the wire format: AppendRender
// must produce byte-identical output to the original fmt-based renderer
// for every machine of the fleet, across seeds.
func TestAppendRenderGolden(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		var buf []byte
		for _, sn := range fleetSnapshots(t, seed) {
			buf = AppendRender(buf[:0], sn)
			want := referenceRender(sn)
			if string(buf) != string(want) {
				t.Fatalf("seed %d machine %s: AppendRender diverges from reference\n got: %q\nwant: %q",
					seed, sn.ID, buf, want)
			}
			if got := Render(sn); string(got) != string(want) {
				t.Fatalf("seed %d machine %s: Render wrapper diverges", seed, sn.ID)
			}
		}
	}
}

// TestAppendRenderGoldenEdgeCases covers shapes the fleet never produces.
func TestAppendRenderGoldenEdgeCases(t *testing.T) {
	base := machine.Snapshot{
		Time: time.Date(2003, 10, 6, 10, 15, 0, 0, time.UTC),
		ID:   "X", Lab: "L",
		BootTime: time.Date(2003, 10, 6, 9, 0, 0, 0, time.UTC),
	}
	cases := []func(*machine.Snapshot){
		func(s *machine.Snapshot) {}, // all-zero dynamics, no MACs, no session
		func(s *machine.Snapshot) { s.MACs = []string{"aa", "bb", "cc", "dd"} },
		func(s *machine.Snapshot) { s.DiskGB = 0.005; s.FreeDiskGB = 0.0005 }, // rounding ties
		func(s *machine.Snapshot) { s.Uptime = 3300 * time.Millisecond; s.CPUIdle = 50 * time.Millisecond },
		func(s *machine.Snapshot) { s.CPUGHz = 1.1; s.SentBytes = math.MaxUint64; s.RecvBytes = 1 },
		func(s *machine.Snapshot) { s.PowerCycles = -1; s.PowerOnHours = math.MaxInt64 },
		func(s *machine.Snapshot) { s.SessionUser = "u"; s.SessionStart = base.Time.Add(-time.Minute) },
	}
	for i, mut := range cases {
		s := base
		mut(&s)
		got := AppendRender(nil, s)
		want := referenceRender(s)
		if string(got) != string(want) {
			t.Errorf("case %d:\n got %q\nwant %q", i, got, want)
		}
	}
}

// TestCodecAllocFree is the alloc regression guard wired into `make
// verify`: the append renderer and the pooled byte parser must not
// allocate on the happy path once warm. If this fails, the
// BenchmarkProbeRender / BenchmarkProbeParseBytes "0 allocs/op"
// acceptance numbers have regressed.
func TestCodecAllocFree(t *testing.T) {
	sn := demoSnapshot() // has MACs and a session: the worst case
	buf := make([]byte, 0, 1024)
	if allocs := testing.AllocsPerRun(200, func() {
		buf = AppendRender(buf[:0], sn)
	}); allocs != 0 {
		t.Errorf("AppendRender allocates %.1f objects/run, want 0", allocs)
	}

	report := Render(sn)
	p := NewParser()
	if _, err := p.ParseBytes(report); err != nil { // warm the intern tables
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := p.ParseBytes(report); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Parser.ParseBytes allocates %.1f objects/run, want 0", allocs)
	}
}

// TestRenderParseFixedPoint is the GHz↔MHz (and general lossiness)
// property test: one Render∘Parse trip may quantise (MHz clock, 0.1 s
// idle precision), but the parsed form must be a fixed point — rendering
// and parsing it again must reproduce it exactly, on every field. A lossy
// drift in any numeric round trip (the historical int(g*1000+0.5) hazard,
// or the float-multiply seconds parser truncating "3.3" to 3299999999 ns)
// breaks this.
func TestRenderParseFixedPoint(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for _, sn := range fleetSnapshots(t, seed) {
			p1, err := Parse(Render(sn))
			if err != nil {
				t.Fatalf("seed %d machine %s: %v", seed, sn.ID, err)
			}
			p2, err := Parse(Render(p1))
			if err != nil {
				t.Fatalf("seed %d machine %s (second trip): %v", seed, sn.ID, err)
			}
			if !reflect.DeepEqual(p1, p2) {
				t.Fatalf("seed %d machine %s: Render∘Parse not a fixed point:\n first %+v\nsecond %+v",
					seed, sn.ID, p1, p2)
			}
			// The fleet's clocks are MHz-quantised, so for them the very
			// first trip must already be exact.
			if p1.CPUGHz != sn.CPUGHz {
				t.Fatalf("seed %d machine %s: CPUGHz %v → %v drifted through MHz",
					seed, sn.ID, sn.CPUGHz, p1.CPUGHz)
			}
			if !p1.Time.Equal(sn.Time) || !p1.BootTime.Equal(sn.BootTime) ||
				p1.Uptime != sn.Uptime {
				t.Fatalf("seed %d machine %s: lossless fields drifted", seed, sn.ID)
			}
		}
	}
}

// TestParseBytesMatchesParse: the predictive parser — with and without a
// target, memo cold and warm — agrees with the oracle parser, including on
// MAC ordering with shuffled indexes.
func TestParseBytesMatchesParse(t *testing.T) {
	sn := demoSnapshot()
	report := Render(sn)
	// Out-of-order and duplicate MAC keys: last duplicate wins, output
	// sorted by index — the legacy map semantics.
	in := string(report)
	in = strings.Replace(in, "net.0.mac: 02:57:4C:00:00:07\n", "", 1)
	in += "net.2.mac: ZZ\nnet.0.mac: first\nnet.0.mac: second\n"
	got, err := Parse([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"second", "02:57:4C:00:01:07", "ZZ"}
	if !reflect.DeepEqual(got.MACs, want) {
		t.Errorf("MACs = %v, want %v", got.MACs, want)
	}

	p := NewParser()
	for i, data := range [][]byte{report, report, []byte(in), report, []byte(in), []byte(in)} {
		want, werr := newOracleParser().ParseBytes(data)
		got, err := p.ParseBytes(data)
		sameParse(t, fmt.Sprintf("report %d, no target", i), got, err, want, werr)
		got, err = p.ParseTarget(sn.ID, data)
		sameParse(t, fmt.Sprintf("report %d, target", i), got, err, want, werr)
	}
}

// TestParserSeconds pins the integer-nanosecond fast path against exact
// values the float path used to miss.
func TestParserSeconds(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"0.0", 0},
		{"3.3", 3300 * time.Millisecond},
		{"5580.0", 5580 * time.Second},
		{"0.000000001", time.Nanosecond},
		{"1.9999999999", 1999999999}, // sub-ns digits truncated
		{"-2.5", -2500 * time.Millisecond},
	}
	for _, c := range cases {
		got, err := parseSecondsB([]byte(c.in))
		if err != nil {
			t.Errorf("parseSecondsB(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("parseSecondsB(%q) = %d, want %d", c.in, got, c.want)
		}
	}
	if _, err := parseSecondsB([]byte("NaNsense")); err == nil {
		t.Error("parseSecondsB accepted garbage")
	}
}

// TestParserNumbersMatchStrconv cross-checks the byte parsers against the
// strconv oracle over a pile of representative literals.
func TestParserNumbersMatchStrconv(t *testing.T) {
	ints := []string{"0", "1", "-1", "+7", "42", "9223372036854775807",
		"-9223372036854775808", "9223372036854775808", "99999999999999999999",
		"", "-", "1x", "1.5"}
	for _, in := range ints {
		got, gerr := parseIntB([]byte(in))
		want, werr := strconv.ParseInt(in, 10, 64)
		if (gerr == nil) != (werr == nil) || (gerr == nil && got != want) {
			t.Errorf("parseIntB(%q) = %d,%v; strconv = %d,%v", in, got, gerr, want, werr)
		}
	}
	uints := []string{"0", "+3", "18446744073709551615", "18446744073709551616", "-1", ""}
	for _, in := range uints {
		got, gerr := parseUintB([]byte(in))
		want, werr := strconv.ParseUint(in, 10, 64)
		if (gerr == nil) != (werr == nil) || (gerr == nil && got != want) {
			t.Errorf("parseUintB(%q) = %d,%v; strconv = %d,%v", in, got, gerr, want, werr)
		}
	}
	floats := []string{"0", "74.50", "54.250", "0.005", "123456.789",
		"-0.1", "5.", ".5", "1e3", "999999999999999999999.5", "", "x"}
	for _, in := range floats {
		got, gerr := parseFloatB([]byte(in))
		want, werr := strconv.ParseFloat(in, 64)
		if (gerr == nil) != (werr == nil) || (gerr == nil && got != want) {
			t.Errorf("parseFloatB(%q) = %v,%v; strconv = %v,%v", in, got, gerr, want, werr)
		}
	}
}

// TestParseTimeBytes: fast path equals time.Parse, odd layouts still work
// via the fallback, and invalid calendar dates are rejected.
func TestParseTimeBytes(t *testing.T) {
	ok := []string{"2003-10-06T10:15:00Z", "2024-02-29T23:59:59Z",
		"2003-10-06T10:15:00+02:00", "2003-10-06T10:15:00.25Z"}
	for _, in := range ok {
		got, err := parseTimeB([]byte(in))
		if err != nil {
			t.Errorf("parseTimeB(%q): %v", in, err)
			continue
		}
		want, err := time.Parse(time.RFC3339, in)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("parseTimeB(%q) = %v, want %v", in, got, want)
		}
	}
	bad := []string{"2003-02-30T10:15:00Z", "2003-13-06T10:15:00Z",
		"2003-10-06T24:15:00Z", "yesterday", ""}
	for _, in := range bad {
		if _, err := parseTimeB([]byte(in)); err == nil {
			t.Errorf("parseTimeB accepted %q", in)
		}
	}
}

// BenchmarkParse compares the parser with its oracle over a fleet's
// reports in rotation (the shape of pipebench's probe.parse_ns loop):
// without a target, with one (the static block replayed from the memo),
// and the oracle parser it replaced.
func BenchmarkParse(b *testing.B) {
	var ids []string
	var reports [][]byte
	for _, sn := range fleetSnapshots(b, 1) {
		ids = append(ids, sn.ID)
		reports = append(reports, Render(sn))
	}
	p, o := NewParser(), newOracleParser()
	for _, bc := range []struct {
		name  string
		parse func(i int) error
	}{
		{"no-target", func(i int) error { _, err := p.ParseBytes(reports[i]); return err }},
		{"target", func(i int) error { _, err := p.ParseTarget(ids[i], reports[i]); return err }},
		{"oracle", func(i int) error { _, err := o.ParseBytes(reports[i]); return err }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bc.parse(i % len(reports)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestTimeCodecMatchesTimePackage holds the integer civil-date
// arithmetic to the time package: appendTime to AppendFormat over
// instants from year 0 to past 9999 (both fallbacks included), and
// parseTimeB to the time.Date oracle on every day of 1899–2101 and on
// every month-end shape that must be refused.
func TestTimeCodecMatchesTimePackage(t *testing.T) {
	rnd := rand.New(rand.NewSource(37))
	instants := []time.Time{{}, time.Unix(0, 0), time.Unix(-1, 0), time.Unix(1, 999999999),
		time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(-1, 12, 31, 23, 59, 59, 0, time.UTC),
		time.Date(9999, 12, 31, 23, 59, 59, 0, time.UTC), time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2000, 2, 29, 12, 0, 0, 0, time.FixedZone("x", -7*3600))}
	for i := 0; i < 20000; i++ {
		instants = append(instants, time.Unix(rnd.Int63n(400000000000)-100000000000, rnd.Int63n(1e9)))
	}
	for _, at := range instants {
		if got, want := string(appendTime(nil, at)), at.UTC().Format(timeLayout); got != want {
			t.Fatalf("appendTime(%v) = %q, want %q", at, got, want)
		}
	}
	for d := time.Date(1899, 1, 1, 23, 59, 58, 0, time.UTC); d.Year() < 2102; d = d.AddDate(0, 0, 1) {
		in := []byte(d.Format(timeLayout))
		got, err := parseTimeB(in)
		want, werr := oracleParseTimeB(in)
		if err != nil || werr != nil || got != want {
			t.Fatalf("parseTimeB(%s) = %v, %v; oracle %v, %v", in, got, err, want, werr)
		}
	}
	for _, y := range []int{1900, 1996, 2000, 2003, 2100} {
		for m := 1; m <= 12; m++ {
			for day := 28; day <= 32; day++ {
				in := []byte(fmt.Sprintf("%04d-%02d-%02dT10:15:00Z", y, m, day))
				got, err := parseTimeB(in)
				want, werr := oracleParseTimeB(in)
				if (err == nil) != (werr == nil) || got != want {
					t.Fatalf("parseTimeB(%s) = %v, %v; oracle %v, %v", in, got, err, want, werr)
				}
			}
		}
	}
}

// TestParserSecondsSaturate: seconds past what a Duration holds saturate,
// on both the integer and the float path, seconds that fit stay exact up
// to the limit, and the saturated values render and parse back to
// themselves.
func TestParserSecondsSaturate(t *testing.T) {
	for in, want := range map[string]time.Duration{
		"9223372035.9":         9223372035900000000,
		"9223372036.5":         9223372036500000000,
		"9223372036.854775807": math.MaxInt64,
		"-9223372036.5":        -9223372036500000000,
		"9223372036.854775808": math.MaxInt64,
		"9223372036.9":         math.MaxInt64,
		"10000000000":          math.MaxInt64,
		"-9223372036.9":        math.MinInt64,
		"1e300":                math.MaxInt64,
	} {
		got, err := parseSecondsB([]byte(in))
		if err != nil || got != want {
			t.Errorf("parseSecondsB(%q) = %d, %v; want %d", in, got, err, want)
		}
		back, err := parseSecondsB(appendFixed(nil, got.Seconds(), 1))
		if err != nil || back != got {
			t.Errorf("%q: %d renders and parses back as %d, %v", in, got, back, err)
		}
	}
}
