package scenario

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"winlab/internal/analysis"
	"winlab/internal/experiment"
	"winlab/internal/trace"
	"winlab/internal/trace/check"
	"winlab/internal/trace/stream"
)

// runDays executes the scenario on the default experiment, with the
// length clamped for test speed.
func runDays(t *testing.T, c *Config, seed int64, days int) *experiment.Result {
	t.Helper()
	cfg, err := c.Experiment(seed)
	if err != nil {
		t.Fatalf("Experiment(%s): %v", c.Name, err)
	}
	cfg.Days = days
	res, err := experiment.Run(cfg)
	if err != nil {
		t.Fatalf("Run(%s): %v", c.Name, err)
	}
	return res
}

func encodeTB(t *testing.T, d *trace.Dataset) []byte {
	t.Helper()
	d.Freeze()
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, d); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	return buf.Bytes()
}

// TestNoopIdentity is the composition contract: an empty scenario (and
// the bundled baseline) applies no hooks, so its trace is byte-for-byte
// the default experiment's.
func TestNoopIdentity(t *testing.T) {
	cfg := experiment.Default(7)
	cfg.Days = 5
	plain, err := experiment.Run(cfg)
	if err != nil {
		t.Fatalf("default run: %v", err)
	}
	want := encodeTB(t, plain.Dataset)

	for _, c := range []*Config{{Name: "empty"}, mustBundled(t, "baseline")} {
		res := runDays(t, c, 7, 5)
		if got := encodeTB(t, res.Dataset); !bytes.Equal(got, want) {
			t.Errorf("scenario %q: trace differs from the default run (%d vs %d bytes)", c.Name, len(got), len(want))
		}
	}
}

func mustBundled(t *testing.T, name string) *Config {
	t.Helper()
	c, err := Bundled(name)
	if err != nil {
		t.Fatalf("Bundled(%s): %v", name, err)
	}
	return c
}

// TestBundledValid: every bundled scenario validates, compiles onto the
// default experiment, and each lab calendar closes within a week exactly
// when it is not AlwaysOpen.
func TestBundledValid(t *testing.T) {
	for _, name := range Names() {
		c := mustBundled(t, name)
		if c.Name != name {
			t.Errorf("bundled %q says its name is %q", name, c.Name)
		}
		cfg, err := c.Experiment(1)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		for lb, cal := range cfg.LabCalendars {
			var closedAt time.Time
			for at := cfg.Start; at.Before(cfg.Start.AddDate(0, 0, 7)); at = at.Add(time.Hour) {
				if !cal.IsOpen(at) {
					closedAt = at
					break
				}
			}
			if cal.AlwaysOpen {
				if !closedAt.IsZero() {
					t.Errorf("%s: always-open lab %s is closed at %v", name, lb, closedAt)
				}
			} else if closedAt.IsZero() {
				t.Errorf("%s: lab %s calendar never closes", name, lb)
			}
		}
	}
}

// TestOverlayRamp pins the phase interpolation: level 1 before the
// first phase, linear through the ramp, the target after it, and the
// previous phase's level as the next ramp's starting point.
func TestOverlayRamp(t *testing.T) {
	start := time.Date(2003, 10, 6, 0, 0, 0, 0, time.UTC)
	o := &overlay{start: start, phases: []Phase{
		{StartDay: 10, RampDays: 4, Arrival: 0.2},
		{StartDay: 20, Arrival: 0.6, Power: 1.5},
	}}
	day := func(d float64) time.Time { return start.Add(time.Duration(d * 24 * float64(time.Hour))) }
	cases := []struct {
		day  float64
		want float64
	}{
		{0, 1}, {9.99, 1},
		{10, 1}, {12, 0.6}, {14, 0.2}, // 1 → 0.2 over 4 days
		{17, 0.2},
		{20, 0.6}, {34, 0.6}, // step change, no ramp
	}
	for _, tc := range cases {
		if got := o.ArrivalFactor(day(tc.day)); !approx(got, tc.want) {
			t.Errorf("ArrivalFactor(day %.2f) = %g, want %g", tc.day, got, tc.want)
		}
	}
	// Attendance never named → always 1; Power steps at day 20.
	if got := o.AttendanceFactor(day(15)); got != 1 {
		t.Errorf("AttendanceFactor mid-ramp = %g, want 1 (unnamed)", got)
	}
	if got := o.PowerFactor(day(12)); got != 1 {
		t.Errorf("PowerFactor(day 12) = %g, want 1", got)
	}
	if got := o.PowerFactor(day(21)); !approx(got, 1.5) {
		t.Errorf("PowerFactor(day 21) = %g, want 1.5", got)
	}
}

func approx(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

// TestParseRejects: malformed scenarios fail at the door.
func TestParseRejects(t *testing.T) {
	cases := map[string]string{
		"unknown field":  `{"name":"x","phaes":[]}`,
		"no name":        `{"days":5}`,
		"bad metric":     `{"name":"x","claims":[{"metric":"uptime","direction":"up"}]}`,
		"bad direction":  `{"name":"x","claims":[{"metric":"availability","direction":"sideways"}]}`,
		"bad location":   `{"name":"x","calendars":{"L01":{"location":"Mars/Olympus"}}}`,
		"leave<=join":    `{"name":"x","lifecycle":[{"machine":"L01-M01","join_day":5,"leave_day":5}]}`,
		"extra sans lab": `{"name":"x","extras":[{"id":"S1","ram_mb":512,"disk_gb":10,"int_index":30,"fp_index":30}]}`,
		"negative phase": `{"name":"x","phases":[{"start_day":-1}]}`,
		"bad cal hours":  `{"name":"x","calendars":{"L01":{"open_hour":8,"night_close":9,"sat_close_hour":21}}}`,
	}
	for label, src := range cases {
		if _, err := Parse([]byte(src)); err == nil {
			t.Errorf("%s: Parse accepted %s", label, src)
		}
	}
}

// TestJSONRoundTrip: a bundled scenario survives marshal → Parse, so a
// scenario dumped to a file behaves identically when loaded back.
func TestJSONRoundTrip(t *testing.T) {
	for _, name := range Names() {
		want := mustBundled(t, name)
		data, err := json.Marshal(want)
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		got, err := Parse(data)
		if err != nil {
			t.Fatalf("%s: parse back: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: round trip changed the scenario:\n got %+v\nwant %+v", name, got, want)
		}
	}
}

// TestClaimCheck pins the claim arithmetic.
func TestClaimCheck(t *testing.T) {
	base := Metrics{Availability: 0.50, HarvestWork: 1000}
	up := Metrics{Availability: 0.60, HarvestWork: 1100}
	down := Metrics{Availability: 0.40, HarvestWork: 900}

	ok := func(cl Claim, got Metrics) {
		t.Helper()
		if err := cl.Check(base, got); err != nil {
			t.Errorf("claim %+v unexpectedly failed: %v", cl, err)
		}
	}
	bad := func(cl Claim, got Metrics) {
		t.Helper()
		if err := cl.Check(base, got); err == nil {
			t.Errorf("claim %+v unexpectedly held", cl)
		}
	}
	ok(Claim{Metric: MetricAvailability, Direction: DirUp, MinShift: 0.1}, up)
	bad(Claim{Metric: MetricAvailability, Direction: DirUp, MinShift: 0.3}, up)
	bad(Claim{Metric: MetricAvailability, Direction: DirUp, MinShift: 0.1}, down)
	ok(Claim{Metric: MetricHarvestWork, Direction: DirDown, MinShift: 0.05}, down)
	bad(Claim{Metric: MetricHarvestWork, Direction: DirDown, MinShift: 0.05}, up)
	ok(Claim{Metric: MetricAvailability, Direction: DirFlat, MinShift: 0.25}, up)
	bad(Claim{Metric: MetricAvailability, Direction: DirFlat, MinShift: 0.1}, down)
}

// churn is a compressed fleet-churn scenario for the end-to-end tests:
// two L05 machines retire at day 2, two Pentium 4 replacements join in
// their place, and one extra joins late *and* leaves early.
func churn() *Config {
	return &Config{
		Name: "churn-test",
		Lifecycle: []Lifecycle{
			{Machine: "L05-M01", LeaveDay: 2},
			{Machine: "L05-M02", LeaveDay: 2},
			{Machine: "L05-R01", JoinDay: 2},
			{Machine: "L05-R02", JoinDay: 2},
			{Machine: "L05-R03", JoinDay: 1, LeaveDay: 3},
		},
		Extras: []Machine{
			{ID: "L05-R01", Lab: "L05", CPUModel: "Intel Pentium 4", CPUGHz: 2.6, RAMMB: 512, DiskGB: 55.8, IntIndex: 39.3, FPIndex: 36.7, BaseImgGB: 16},
			{ID: "L05-R02", Lab: "L05", CPUModel: "Intel Pentium 4", CPUGHz: 2.6, RAMMB: 512, DiskGB: 55.8, IntIndex: 39.3, FPIndex: 36.7, BaseImgGB: 16},
			{ID: "L05-R03", Lab: "L05", CPUModel: "Intel Pentium 4", CPUGHz: 2.6, RAMMB: 512, DiskGB: 55.8, IntIndex: 39.3, FPIndex: 36.7, BaseImgGB: 16},
		},
	}
}

// TestChurnEndToEnd is the partial-lifetime machines contract, end to
// end: a run with joiners and leavers produces a doctor-clean trace
// whose catalogue carries the lifetime stamps, every sample falls
// inside its machine's declared window, the analysis denominators are
// per-machine, the TBv1 v2 encoding round-trips, and the streaming
// analysis reproduces the in-memory one bit for bit.
func TestChurnEndToEnd(t *testing.T) {
	res := runDays(t, churn(), 3, 5)
	d := res.Dataset
	iters := len(d.Iterations)
	perDay := int(24 * time.Hour / res.Config.Period)

	// The dataset invariant checker (which includes the lifetime check)
	// finds nothing.
	if rep := check.Check(d, check.Options{}); !rep.OK() {
		t.Fatalf("churn trace not doctor-clean: %v", rep.Err())
	}

	// Lifetime stamps: leavers end at day 2, joiners start at day 2,
	// the visitor holds [day 1, day 3).
	wantLife := map[string][2]int{
		"L05-M01": {0, 2 * perDay},
		"L05-M02": {0, 2 * perDay},
		"L05-R01": {2 * perDay, 0},
		"L05-R02": {2 * perDay, 0},
		"L05-R03": {1 * perDay, 3 * perDay},
	}
	byID := make(map[string]*trace.MachineInfo)
	for i := range d.Machines {
		byID[d.Machines[i].ID] = &d.Machines[i]
	}
	for id, want := range wantLife {
		mi := byID[id]
		if mi == nil {
			t.Fatalf("machine %s missing from the catalogue", id)
		}
		if mi.JoinIter != want[0] || mi.LeaveIter != want[1] {
			t.Errorf("%s: lifetime [%d,%d), want [%d,%d)", id, mi.JoinIter, mi.LeaveIter, want[0], want[1])
		}
	}

	// Samples respect the windows (Check already guarantees this; the
	// direct scan keeps the guarantee independent of the checker).
	idx := d.Index()
	for id := range wantLife {
		mi := byID[id]
		for _, s := range idx.Samples(id) {
			if !mi.ActiveAt(s.Iter) {
				t.Errorf("%s: sample at iteration %d outside [%d,%d)", id, s.Iter, mi.JoinIter, mi.LeaveIter)
			}
		}
	}

	// Per-machine denominators: no machine exceeds ratio 1, and the
	// late joiner's denominator is its membership, not the whole trace.
	ups := analysis.All(d, analysis.Options{}).Uptimes
	for _, u := range ups {
		if u.Ratio < 0 || u.Ratio > 1 {
			t.Errorf("%s: uptime ratio %g out of [0,1]", u.Machine, u.Ratio)
		}
	}
	joiner := byID["L05-R01"]
	attempts := 0
	for i := range d.Iterations {
		if joiner.ActiveAt(d.Iterations[i].Iter) {
			attempts++
		}
	}
	if attempts >= iters {
		t.Errorf("joiner denominator %d not smaller than the %d trace iterations", attempts, iters)
	}

	// TBv1 round trip: partial lifetimes force version 2 and survive
	// decode.
	tb := encodeTB(t, d)
	back, err := trace.ReadBinary(bytes.NewReader(tb))
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if diff := check.FirstDiff(d.Machines, back.Machines); diff != "" {
		t.Errorf("catalogue changed across the binary round trip: %s", diff)
	}

	// Streaming analysis over the encoding matches in-memory analysis,
	// churn denominators included.
	want := analysis.All(d, analysis.Options{Workers: 1})
	c, err := stream.New(bytes.NewReader(tb))
	if err != nil {
		t.Fatalf("stream.New: %v", err)
	}
	got, err := analysis.AllStream(c, analysis.Options{Workers: 1})
	if err != nil {
		t.Fatalf("AllStream: %v", err)
	}
	if diff := check.FirstDiff(want, got); diff != "" {
		t.Errorf("AllStream diverges from All on a churn trace: %s", diff)
	}
}

// TestChurnSharded: the sharded collector reproduces the serial run on
// a churn scenario byte for byte, and the merged catalogue keeps the
// lifetime stamps.
func TestChurnSharded(t *testing.T) {
	serial := runDays(t, churn(), 3, 4)

	cfg, err := churn().Experiment(3)
	if err != nil {
		t.Fatalf("Experiment: %v", err)
	}
	cfg.Days = 4
	cfg.Shards = 4
	sharded, err := experiment.Run(cfg)
	if err != nil {
		t.Fatalf("sharded run: %v", err)
	}
	a := encodeTB(t, serial.Dataset)
	b := encodeTB(t, sharded.Dataset)
	if !bytes.Equal(a, b) {
		t.Fatalf("sharded churn run diverges from serial (%d vs %d bytes)", len(b), len(a))
	}
}
