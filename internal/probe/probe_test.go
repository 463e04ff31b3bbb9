package probe

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"winlab/internal/machine"
	"winlab/internal/smart"
)

var t0 = time.Date(2003, 10, 6, 10, 15, 0, 0, time.UTC)

// Render and Parse are the one-shot forms of the codec the tests in this
// package use: a report in a fresh buffer, a parse by a fresh Parser.
func Render(s machine.Snapshot) []byte { return AppendRender(make([]byte, 0, 640), s) }

func Parse(data []byte) (machine.Snapshot, error) { return NewParser().ParseBytes(data) }

func demoSnapshot() machine.Snapshot {
	return machine.Snapshot{
		Time:         t0,
		ID:           "L01-M07",
		Lab:          "L01",
		CPUModel:     "Intel Pentium 4",
		CPUGHz:       2.4,
		RAMMB:        512,
		SwapMB:       768,
		DiskGB:       74.5,
		Serial:       "WD-L010007",
		MACs:         []string{"02:57:4C:00:00:07", "02:57:4C:00:01:07"},
		OS:           "Windows 2000 Professional SP3",
		BootTime:     t0.Add(-93 * time.Minute),
		Uptime:       93 * time.Minute,
		CPUIdle:      91 * time.Minute,
		MemLoadPct:   59,
		SwapLoadPct:  26,
		FreeDiskGB:   54.25,
		PowerCycles:  289,
		PowerOnHours: 1931,
		SentBytes:    1694475,
		RecvBytes:    5433750,
		SessionUser:  "student042",
		SessionStart: t0.Add(-86 * time.Minute),
	}
}

func TestRoundTrip(t *testing.T) {
	want := demoSnapshot()
	got, err := Parse(Render(want))
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != want.ID || got.Lab != want.Lab || got.OS != want.OS ||
		got.CPUModel != want.CPUModel || got.CPUGHz != want.CPUGHz ||
		got.RAMMB != want.RAMMB || got.SwapMB != want.SwapMB ||
		got.DiskGB != want.DiskGB || got.Serial != want.Serial {
		t.Errorf("static fields mismatch:\n got %+v\nwant %+v", got, want)
	}
	if !got.Time.Equal(want.Time) || !got.BootTime.Equal(want.BootTime) {
		t.Errorf("times mismatch: %v / %v", got.Time, got.BootTime)
	}
	if got.Uptime != want.Uptime {
		t.Errorf("uptime = %v", got.Uptime)
	}
	// CPUIdle is rendered with 0.1 s precision.
	if d := got.CPUIdle - want.CPUIdle; d < -time.Second || d > time.Second {
		t.Errorf("cpu idle = %v, want ≈%v", got.CPUIdle, want.CPUIdle)
	}
	if got.MemLoadPct != 59 || got.SwapLoadPct != 26 {
		t.Errorf("loads = %d/%d", got.MemLoadPct, got.SwapLoadPct)
	}
	if got.PowerCycles != 289 || got.PowerOnHours != 1931 {
		t.Errorf("SMART = %d/%d", got.PowerCycles, got.PowerOnHours)
	}
	if got.SentBytes != want.SentBytes || got.RecvBytes != want.RecvBytes {
		t.Errorf("net counters = %d/%d", got.SentBytes, got.RecvBytes)
	}
	if got.SessionUser != "student042" || !got.SessionStart.Equal(want.SessionStart) {
		t.Errorf("session = %q %v", got.SessionUser, got.SessionStart)
	}
	if len(got.MACs) != 2 || got.MACs[0] != want.MACs[0] || got.MACs[1] != want.MACs[1] {
		t.Errorf("MACs = %v", got.MACs)
	}
}

func TestNoSession(t *testing.T) {
	sn := demoSnapshot()
	sn.SessionUser = ""
	sn.SessionStart = time.Time{}
	out := string(Render(sn))
	if strings.Contains(out, "session.") {
		t.Errorf("sessionless report contains session keys:\n%s", out)
	}
	got, err := Parse([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	if got.HasSession() {
		t.Error("parsed sessionless report has session")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"bad magic", "NOTAPROBE/9\nmachine: x\n"},
		{"missing colon", Version + "\nmachine L01\n"},
		{"bad number", Version + "\nmachine: x\ntime: 2003-10-06T10:15:00Z\nboot.time: 2003-10-06T09:00:00Z\nuptime.sec: NaNsense\ncpu.idle.sec: 1\n"},
		{"bad time", Version + "\nmachine: x\ntime: yesterday\n"},
		{"missing mandatory", Version + "\nmachine: x\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse([]byte(c.in))
			if err == nil {
				t.Errorf("Parse accepted %q", c.in)
			}
			var pe *ParseError
			if !asParseError(err, &pe) {
				t.Errorf("error is %T, want *ParseError", err)
			} else if pe.Error() == "" {
				t.Error("empty error text")
			}
		})
	}
}

func asParseError(err error, target **ParseError) bool {
	pe, ok := err.(*ParseError)
	if ok {
		*target = pe
	}
	return ok
}

func TestUnknownKeysIgnored(t *testing.T) {
	in := Render(demoSnapshot())
	in = append(in, []byte("future.metric: 42\n")...)
	if _, err := Parse(in); err != nil {
		t.Errorf("unknown key rejected: %v", err)
	}
}

func TestBlankLinesTolerated(t *testing.T) {
	in := strings.ReplaceAll(string(Render(demoSnapshot())), "\nos:", "\n\nos:")
	if _, err := Parse([]byte(in)); err != nil {
		t.Errorf("blank line rejected: %v", err)
	}
}

func TestRenderDeterministic(t *testing.T) {
	a := Render(demoSnapshot())
	b := Render(demoSnapshot())
	if string(a) != string(b) {
		t.Error("Render not deterministic")
	}
}

func TestQuickRoundTripIntegers(t *testing.T) {
	// Property: numeric fields survive the round trip for arbitrary values.
	f := func(mem, swap uint8, cycles uint16, sent, recv uint32) bool {
		sn := demoSnapshot()
		sn.MemLoadPct = int(mem) % 101
		sn.SwapLoadPct = int(swap) % 101
		sn.PowerCycles = int64(cycles)
		sn.SentBytes = uint64(sent)
		sn.RecvBytes = uint64(recv)
		got, err := Parse(Render(sn))
		if err != nil {
			return false
		}
		return got.MemLoadPct == sn.MemLoadPct &&
			got.SwapLoadPct == sn.SwapLoadPct &&
			got.PowerCycles == sn.PowerCycles &&
			got.SentBytes == sn.SentBytes &&
			got.RecvBytes == sn.RecvBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLiveMachineRoundTrip(t *testing.T) {
	// End-to-end: a real simulated machine's snapshot must render and
	// parse losslessly enough for the analysis fields.
	hw := machine.Hardware{
		CPUModel: "Intel Pentium III", CPUGHz: 1.1, RAMMB: 256,
		DiskGB: 18.6, MACs: []string{"02:57:4C:00:00:01"}, OS: "Windows 2000",
	}
	m := machine.New("L08-M01", "L08", hw, newDisk(t))
	boot := t0.Add(-2 * time.Hour)
	m.PowerOn(boot)
	m.SetBaseline(140, 95, 10)
	m.Login(boot.Add(10*time.Minute), "u1")
	sn, ok := m.Snapshot(t0)
	if !ok {
		t.Fatal("snapshot failed")
	}
	got, err := Parse(Render(sn))
	if err != nil {
		t.Fatal(err)
	}
	if got.Uptime != 2*time.Hour || got.SessionUser != "u1" {
		t.Errorf("parsed %v / %q", got.Uptime, got.SessionUser)
	}
}

func newDisk(t *testing.T) *smart.Disk {
	t.Helper()
	return smart.NewDisk("T1", 18.6)
}
