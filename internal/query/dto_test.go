package query

import (
	"encoding/json"
	"strconv"
	"testing"
	"time"

	"winlab/internal/anomaly"
)

// The golden tests pin each DTO's wire bytes to literal JSON: field
// names and order, nil slices as null and empty ones as [], RFC 3339
// times with their zone and sub-second digits, HTML-safe string
// escaping, shortest-form floats. A renamed, retagged or reordered
// field fails them, and so does an encoder that formats differently.
// TestAPIBytesPinned holds the same contract over a real run's bodies.

// goldenJSON marshals v as the query API does and compares the bytes
// with want.
func goldenJSON(t *testing.T, name string, v any, want string) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if string(b) != want {
		t.Errorf("%s:\n got %s\nwant %s", name, b, want)
	}
}

// metaJSON is testMeta's wire form, the block every snapshot document
// opens with.
const metaJSON = `{"epoch":42,"fingerprint":"00a1b2c3d4e5f607","start":"2003-10-06T08:00:00Z","end":"2003-12-01T08:30:15.123456789Z","period_sec":900,"iterations":5376,"samples":456000,"machines":169}`

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
	goldenJSON(t, "meta", m, metaJSON)
	// Non-UTC zone and sub-second precision must round-trip identically.
	loc := time.FixedZone("WET", 3600)
	m.Start = time.Date(2003, 10, 6, 8, 0, 0, 5000, loc)
	goldenJSON(t, "meta with zone", m, `{"epoch":42,"fingerprint":"00a1b2c3d4e5f607","start":"2003-10-06T08:00:00.000005+01:00","end":"2003-12-01T08:30:15.123456789Z","period_sec":900,"iterations":5376,"samples":456000,"machines":169}`)
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
	goldenJSON(t, "summary", s, `{"meta":`+metaJSON+`,"no_login":{"samples":1,"uptime_pct":39.04,"cpu_idle_pct":97.78,"ram_load_pct":0,"swap_load_pct":0,"disk_used_gb":0,"sent_bps":1234.5678,"recv_bps":0},"with_login":{"samples":2,"uptime_pct":41.98,"cpu_idle_pct":89.63,"ram_load_pct":54.81,"swap_load_pct":20.1,"disk_used_gb":5.77,"sent_bps":6543,"recv_bps":29177},"both":{"samples":3,"uptime_pct":0,"cpu_idle_pct":0,"ram_load_pct":0,"swap_load_pct":0,"disk_used_gb":0,"sent_bps":0,"recv_bps":0},"avg_powered_on":84.87,"avg_user_free":57.29,"equivalence_occupied":0.26,"equivalence_free":0.25,"equivalence_total":0.51,"power_cycles_total":13871,"power_cycles_per_day":1.07,"lifetime_per_cycle_h":6.46,"session_count":10688,"session_mean_h":15.92,"fleet_free_ram_gb":21.5,"fleet_free_disk_tb":4.2}`)
}

func TestGoldenAvailability(t *testing.T) {
	a := Availability{
		Meta: testMeta(),
		Points: []AvailabilityPoint{
			{Iter: 0, T: 1065427200, On: 100, Free: 57},
			{Iter: 1, T: 1065428100, On: 0, Free: 0},
		},
	}
	goldenJSON(t, "availability", a, `{"meta":`+metaJSON+`,"points":[{"iter":0,"t":1065427200,"on":100,"free":57},{"iter":1,"t":1065428100,"on":0,"free":0}]}`)
	a.Points = nil
	goldenJSON(t, "availability nil points", a, `{"meta":`+metaJSON+`,"points":null}`)
	a.Points = []AvailabilityPoint{}
	goldenJSON(t, "availability empty points", a, `{"meta":`+metaJSON+`,"points":[]}`)
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
	goldenJSON(t, "labs", l, `{"meta":`+metaJSON+`,"labs":[{"lab":"Lab \u003cA\u003e \u0026 \"B\"","machines":20,"uptime_pct":48.1,"occupied_pct":22.3,"cpu_idle_pct":93.5,"ram_load_pct":55.2,"free_ram_mb":101.7,"free_disk_gb":29.9},{"lab":"sótão\n","machines":0,"uptime_pct":0,"occupied_pct":0,"cpu_idle_pct":0,"ram_load_pct":0,"free_ram_mb":0,"free_disk_gb":0}]}`)
}

func TestGoldenMachines(t *testing.T) {
	m := Machines{
		Meta: testMeta(),
		Machines: []Machine{
			{ID: "lab1-pc07", Lab: "lab1", UptimeRatio: 0.512345678901, Nines: 0.311},
			{ID: "", Lab: "", UptimeRatio: 0, Nines: 0},
		},
	}
	goldenJSON(t, "machines", m, `{"meta":`+metaJSON+`,"machines":[{"id":"lab1-pc07","lab":"lab1","uptime_ratio":0.512345678901,"nines":0.311},{"id":"","lab":"","uptime_ratio":0,"nines":0}]}`)
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
	goldenJSON(t, "weekly", w, `{"meta":`+metaJSON+`,"slot_minutes":15,"cpu_idle_pct":[97.1,0,2.5e-7,1e+21,0.000001],"ram_load_pct":[],"swap_load_pct":null,"sent_bps":[-0.0001],"recv_bps":[123456789.123]}`)
}

func TestGoldenEquivalence(t *testing.T) {
	e := Equivalence{
		Meta: testMeta(), Occupied: 0.26, Free: 0.25, Total: 0.51,
		WeeklyTotal:    []float64{0.5, 0.49},
		WeeklyOccupied: []float64{0.3},
		WeeklyFree:     nil,
	}
	goldenJSON(t, "equivalence", e, `{"meta":`+metaJSON+`,"occupied":0.26,"free":0.25,"total":0.51,"weekly_total":[0.5,0.49],"weekly_occupied":[0.3],"weekly_free":null}`)
}

func TestGoldenUptimes(t *testing.T) {
	u := Uptimes{
		Meta: testMeta(), Bins: 20,
		Counts:  []int{0, 3, 17, 42, 0},
		Above50: 30, Above80: 9, Above90: 0,
	}
	goldenJSON(t, "uptimes", u, `{"meta":`+metaJSON+`,"bins":20,"counts":[0,3,17,42,0],"above_50":30,"above_80":9,"above_90":0}`)
	u.Counts = nil
	goldenJSON(t, "uptimes nil counts", u, `{"meta":`+metaJSON+`,"bins":20,"counts":null,"above_50":30,"above_80":9,"above_90":0}`)
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
	goldenJSON(t, "heatmap", h, `{"meta":`+metaJSON+`,"hours":168,"free_machines":[57.3,0,12],"machines":[{"id":"m1","lab":"lab1","uptime":[1,0.5,0]},{"id":"m2","lab":"lab2","uptime":null}]}`)
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
	goldenJSON(t, "events", e, `{"epoch":7,"total":12000,"events":[{"epoch":3,"event":{"t":"2003-11-02T14:00:00Z","kind":"mass-outage","severity":"crit","lab":"lab2","first_iter":100,"last_iter":104,"score":7.25,"detail":"42 machines \u003cdark\u003e"}},{"epoch":7,"event":{"t":"2003-11-03T09:15:00Z","kind":"flapping","severity":"warn","machine":"lab1-pc03","first_iter":200,"last_iter":230,"score":3.5}}]}`)
	e.Events = nil
	goldenJSON(t, "events nil", e, `{"epoch":7,"total":12000,"events":null}`)
}

// TestGoldenStringEscaping pins how a DTO string field reaches the
// wire: quotes, backslashes and control bytes escaped, HTML-significant
// characters and U+2028/U+2029 as \u escapes, invalid UTF-8 replaced by
// U+FFFD, other UTF-8 passed through.
func TestGoldenStringEscaping(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", `""`},
		{"plain", `"plain"`},
		{`quote " backslash \`, `"quote \" backslash \\"`},
		{"tab\tnewline\ncr\r", `"tab\tnewline\ncr\r"`},
		{"ctrl \x00\x01\x1f", `"ctrl \u0000\u0001\u001f"`},
		{"html <tag> & entity", `"html \u003ctag\u003e \u0026 entity"`},
		{"utf8 héllo 世界 ✓", `"utf8 héllo 世界 ✓"`},
		{"line seps \u2028 \u2029", `"line seps \u2028 \u2029"`},
		{"invalid \xff\xfe utf8", `"invalid \ufffd\ufffd utf8"`},
		{"mixed\x7f", "\"mixed\x7f\""},
	}
	for _, c := range cases {
		m := Machine{ID: c.in, Lab: "lab1"}
		goldenJSON(t, "machine id "+strconv.Quote(c.in), m, `{"id":`+c.want+`,"lab":"lab1","uptime_ratio":0,"nines":0}`)
	}
}

// TestGoldenFloatFormats pins how a DTO float field reaches the wire
// across the boundaries where the notation switches: shortest
// round-trip digits, plain decimals for 1e-6 <= |f| < 1e21 and
// exponent form without a leading zero in the exponent outside it.
func TestGoldenFloatFormats(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0"}, {1, "1"}, {-1, "-1"}, {0.5, "0.5"},
		{1e-5, "0.00001"}, {1e-6, "0.000001"}, {9.999e-7, "9.999e-7"},
		{1e-7, "1e-7"}, {2.5e-20, "2.5e-20"},
		{1e20, "100000000000000000000"}, {1e21, "1e+21"}, {1.5e21, "1.5e+21"},
		{123456789012345678901.0, "123456789012345680000"}, {-2.5e-7, "-2.5e-7"},
		{3.141592653589793, "3.141592653589793"}, {84.87, "84.87"},
		{0.1, "0.1"}, {1.0 / 3.0, "0.3333333333333333"},
	}
	for _, c := range cases {
		m := Machine{ID: "m", UptimeRatio: c.in}
		goldenJSON(t, "uptime_ratio "+strconv.FormatFloat(c.in, 'g', -1, 64), m, `{"id":"m","lab":"","uptime_ratio":`+c.want+`,"nines":0}`)
	}
}
