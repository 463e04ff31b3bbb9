package query

import (
	"encoding/json"
	"testing"
	"time"

	"winlab/internal/anomaly"
	"winlab/internal/jsonx"
)

// The golden tests pin every hand-rolled encoder byte-identical to
// encoding/json over the DTO struct tags — the same contract the
// telemetry and anomaly encoders carry. If a DTO field is added or
// reordered without updating its encoder, these fail.

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func testMeta() Meta {
	return Meta{
		Epoch:       42,
		Fingerprint: "00a1b2c3d4e5f607",
		Start:       time.Date(2003, 10, 6, 8, 0, 0, 0, time.UTC),
		End:         time.Date(2003, 12, 1, 8, 30, 15, 123456789, time.UTC),
		PeriodSec:   900,
		Iterations:  5376,
		Samples:     456000,
		Machines:    169,
	}
}

func TestGoldenMeta(t *testing.T) {
	m := testMeta()
	if got, want := string(appendMeta(nil, &m)), mustJSON(t, m); got != want {
		t.Errorf("meta:\n got %s\nwant %s", got, want)
	}
	// Non-UTC zone and sub-second precision must round-trip identically.
	loc := time.FixedZone("WET", 3600)
	m.Start = time.Date(2003, 10, 6, 8, 0, 0, 5000, loc)
	if got, want := string(appendMeta(nil, &m)), mustJSON(t, m); got != want {
		t.Errorf("meta with zone:\n got %s\nwant %s", got, want)
	}
}

func TestGoldenSummary(t *testing.T) {
	s := Summary{
		Meta:    testMeta(),
		NoLogin: Column{Samples: 1, UptimePct: 39.04, CPUIdlePct: 97.78, SentBps: 1234.5678},
		WithLogin: Column{
			Samples: 2, UptimePct: 41.98, CPUIdlePct: 89.63, RAMLoadPct: 54.81,
			SwapLoadPct: 20.1, DiskUsedGB: 5.77, SentBps: 6543, RecvBps: 29177,
		},
		Both:                Column{Samples: 3},
		AvgPoweredOn:        84.87,
		AvgUserFree:         57.29,
		EquivalenceOccupied: 0.26,
		EquivalenceFree:     0.25,
		EquivalenceTotal:    0.51,
		PowerCyclesTotal:    13871,
		PowerCyclesPerDay:   1.07,
		LifetimePerCycleH:   6.46,
		SessionCount:        10688,
		SessionMeanH:        15.92,
		FleetFreeRAMGB:      21.5,
		FleetFreeDiskTB:     4.2,
	}
	if got, want := string(appendSummary(nil, &s)), mustJSON(t, s); got != want {
		t.Errorf("summary:\n got %s\nwant %s", got, want)
	}
}

func TestGoldenAvailability(t *testing.T) {
	a := Availability{
		Meta: testMeta(),
		Points: []AvailabilityPoint{
			{Iter: 0, T: 1065427200, On: 100, Free: 57},
			{Iter: 1, T: 1065428100, On: 0, Free: 0},
		},
	}
	if got, want := string(appendAvailability(nil, &a)), mustJSON(t, a); got != want {
		t.Errorf("availability:\n got %s\nwant %s", got, want)
	}
	a.Points = nil
	if got, want := string(appendAvailability(nil, &a)), mustJSON(t, a); got != want {
		t.Errorf("availability nil points:\n got %s\nwant %s", got, want)
	}
	a.Points = []AvailabilityPoint{}
	if got, want := string(appendAvailability(nil, &a)), mustJSON(t, a); got != want {
		t.Errorf("availability empty points:\n got %s\nwant %s", got, want)
	}
}

func TestGoldenLabs(t *testing.T) {
	l := Labs{
		Meta: testMeta(),
		Labs: []Lab{
			{Lab: "Lab <A> & \"B\"", Machines: 20, UptimePct: 48.1, OccupiedPct: 22.3,
				CPUIdlePct: 93.5, RAMLoadPct: 55.2, FreeRAMMB: 101.7, FreeDiskGB: 29.9},
			{Lab: "sótão\n"},
		},
	}
	if got, want := string(appendLabs(nil, &l)), mustJSON(t, l); got != want {
		t.Errorf("labs:\n got %s\nwant %s", got, want)
	}
}

func TestGoldenMachines(t *testing.T) {
	m := Machines{
		Meta: testMeta(),
		Machines: []Machine{
			{ID: "lab1-pc07", Lab: "lab1", UptimeRatio: 0.512345678901, Nines: 0.311},
			{ID: "", Lab: "", UptimeRatio: 0, Nines: 0},
		},
	}
	if got, want := string(appendMachines(nil, &m)), mustJSON(t, m); got != want {
		t.Errorf("machines:\n got %s\nwant %s", got, want)
	}
}

func TestGoldenWeekly(t *testing.T) {
	w := Weekly{
		Meta:        testMeta(),
		SlotMinutes: 15,
		CPUIdlePct:  []float64{97.1, 0, 2.5e-7, 1e21, 1e-6},
		RAMLoadPct:  []float64{},
		SwapLoadPct: nil,
		SentBps:     []float64{-0.0001},
		RecvBps:     []float64{123456789.123},
	}
	if got, want := string(appendWeekly(nil, &w)), mustJSON(t, w); got != want {
		t.Errorf("weekly:\n got %s\nwant %s", got, want)
	}
}

func TestGoldenEquivalence(t *testing.T) {
	e := Equivalence{
		Meta: testMeta(), Occupied: 0.26, Free: 0.25, Total: 0.51,
		WeeklyTotal:    []float64{0.5, 0.49},
		WeeklyOccupied: []float64{0.3},
		WeeklyFree:     nil,
	}
	if got, want := string(appendEquivalence(nil, &e)), mustJSON(t, e); got != want {
		t.Errorf("equivalence:\n got %s\nwant %s", got, want)
	}
}

func TestGoldenUptimes(t *testing.T) {
	u := Uptimes{
		Meta: testMeta(), Bins: 20,
		Counts:  []int{0, 3, 17, 42, 0},
		Above50: 30, Above80: 9, Above90: 0,
	}
	if got, want := string(appendUptimes(nil, &u)), mustJSON(t, u); got != want {
		t.Errorf("uptimes:\n got %s\nwant %s", got, want)
	}
	u.Counts = nil
	if got, want := string(appendUptimes(nil, &u)), mustJSON(t, u); got != want {
		t.Errorf("uptimes nil counts:\n got %s\nwant %s", got, want)
	}
}

func TestGoldenHeatmap(t *testing.T) {
	h := Heatmap{
		Meta: testMeta(), Hours: 168,
		FreeMachines: []float64{57.3, 0, 12},
		Machines: []MachineHeatRow{
			{ID: "m1", Lab: "lab1", Uptime: []float64{1, 0.5, 0}},
			{ID: "m2", Lab: "lab2", Uptime: nil},
		},
	}
	if got, want := string(appendHeatmap(nil, &h)), mustJSON(t, h); got != want {
		t.Errorf("heatmap:\n got %s\nwant %s", got, want)
	}
}

func TestGoldenEvents(t *testing.T) {
	e := Events{
		Epoch: 7, Total: 12000,
		Events: []EventRecord{
			{Epoch: 3, Event: anomaly.Event{
				Time: time.Date(2003, 11, 2, 14, 0, 0, 0, time.UTC),
				Kind: "mass-outage", Severity: "crit", Lab: "lab2",
				FirstIter: 100, LastIter: 104, Score: 7.25, Detail: "42 machines <dark>",
			}},
			{Epoch: 7, Event: anomaly.Event{
				Time: time.Date(2003, 11, 3, 9, 15, 0, 0, time.UTC),
				Kind: "flapping", Severity: "warn", Machine: "lab1-pc03",
				FirstIter: 200, LastIter: 230, Score: 3.5,
			}},
		},
	}
	if got, want := string(appendEvents(nil, &e)), mustJSON(t, e); got != want {
		t.Errorf("events:\n got %s\nwant %s", got, want)
	}
	e.Events = nil
	if got, want := string(appendEvents(nil, &e)), mustJSON(t, e); got != want {
		t.Errorf("events nil:\n got %s\nwant %s", got, want)
	}
}

// TestGoldenStringEscaping sweeps the string encoder over the escaping
// edge cases encoding/json handles specially.
func TestGoldenStringEscaping(t *testing.T) {
	cases := []string{
		"", "plain", `quote " backslash \`, "tab\tnewline\ncr\r",
		"ctrl \x00\x01\x1f", "html <tag> & entity", "utf8 héllo 世界 ✓",
		"line seps \u2028 \u2029", "invalid \xff\xfe utf8", "mixed\x7f",
	}
	for _, s := range cases {
		got := string(jsonx.AppendString(nil, s))
		want := mustJSON(t, s)
		if got != want {
			t.Errorf("string %q:\n got %s\nwant %s", s, got, want)
		}
	}
}

// TestGoldenFloatFormats sweeps the float encoder over the format
// boundaries where encoding/json switches notation.
func TestGoldenFloatFormats(t *testing.T) {
	cases := []float64{
		0, 1, -1, 0.5, 1e-5, 1e-6, 9.999e-7, 1e-7, 2.5e-20,
		1e20, 1e21, 1.5e21, 123456789012345678901.0, -2.5e-7,
		3.141592653589793, 84.87, 0.1, 1.0 / 3.0,
	}
	for _, f := range cases {
		got := string(jsonx.AppendFloat(nil, f))
		want := mustJSON(t, f)
		if got != want {
			t.Errorf("float %v:\n got %s\nwant %s", f, got, want)
		}
	}
}
