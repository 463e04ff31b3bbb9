package check_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"winlab/internal/stats"
	"winlab/internal/trace"
	"winlab/internal/trace/check"
)

var (
	t0     = time.Date(2003, 10, 6, 8, 0, 0, 0, time.UTC)
	period = 15 * time.Minute
)

// cleanDataset returns the corpus's clean fixture: two machines over
// four iterations, m1 rebooting before iteration 2, m2 holding an
// interactive session (see fixtures.go).
func cleanDataset() *trace.Dataset { return check.CleanFixture() }

func TestCheckCleanDataset(t *testing.T) {
	d := cleanDataset()
	r := check.Check(d, check.Options{})
	if !r.OK() {
		for _, v := range r.Violations {
			t.Errorf("unexpected violation: %s", v)
		}
	}
	if r.Samples != len(d.Samples) || r.Iterations != len(d.Iterations) || r.Machines != 2 {
		t.Errorf("coverage = %d samples / %d iters / %d machines, want %d/%d/2",
			r.Samples, r.Iterations, r.Machines, len(d.Samples), len(d.Iterations))
	}
	if err := r.Err(); err != nil {
		t.Errorf("Err() = %v on clean dataset", err)
	}
}

// sampleAt returns the index in d.Samples of machine's sample for iter.
func sampleAt(t *testing.T, d *trace.Dataset, machine string, iter int) int {
	t.Helper()
	for i := range d.Samples {
		if d.Samples[i].Machine == machine && d.Samples[i].Iter == iter {
			return i
		}
	}
	t.Fatalf("no sample for %s iter %d", machine, iter)
	return -1
}

// TestCheckCorruptions runs the checker over the corrupted-fixture
// corpus (one fixture per invariant class, see fixtures.go) and asserts
// it reports the expected Kind with machine/iteration coordinates.
func TestCheckCorruptions(t *testing.T) {
	fixtures := check.CorruptedFixtures()
	if len(fixtures) < 10 {
		t.Fatalf("corpus has only %d fixtures", len(fixtures))
	}
	seenKinds := map[check.Kind]bool{}
	for _, fx := range fixtures {
		t.Run(fx.Name, func(t *testing.T) {
			r := check.Check(fx.Dataset, check.Options{})
			if r.OK() {
				t.Fatalf("corruption not detected")
			}
			found := false
			for _, v := range r.Violations {
				if v.Kind == fx.Kind && (fx.Machine == "" || v.Machine == fx.Machine) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("no %s violation for machine %q; got:", fx.Kind, fx.Machine)
				for _, v := range r.Violations {
					t.Errorf("  %s", v)
				}
			}
			if err := r.Err(); err == nil {
				t.Errorf("Err() = nil on corrupted dataset")
			}
			seenKinds[fx.Kind] = true
		})
	}
	// The corpus must exercise every invariant class the checker knows.
	for _, k := range []check.Kind{
		check.KindCounterRegression, check.KindSMARTRegression,
		check.KindIterationOrder, check.KindIterationAlignment,
		check.KindDuplicateSample, check.KindSessionState,
		check.KindSampleBounds, check.KindUnknownMachine,
		check.KindResponseAccounting, check.KindIndexMismatch,
	} {
		if !seenKinds[k] {
			t.Errorf("corpus has no fixture for %s", k)
		}
	}
}

// TestCorruptedFixturesSurviveSerialisation pins the property the
// tracedoctor -write-corpus mode depends on: every serialisable fixture
// still reports its expected Kind after a TBv1 round trip.
func TestCorruptedFixturesSurviveSerialisation(t *testing.T) {
	for _, fx := range check.CorruptedFixtures() {
		if !fx.Serializable {
			continue
		}
		t.Run(fx.Name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := trace.WriteBinary(&buf, fx.Dataset); err != nil {
				t.Fatalf("write: %v", err)
			}
			rd, err := trace.ReadAny(&buf)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			r := check.Check(rd, check.Options{})
			for _, v := range r.Violations {
				if v.Kind == fx.Kind && (fx.Machine == "" || v.Machine == fx.Machine) {
					return
				}
			}
			t.Errorf("no %s violation for machine %q after the round trip; got %d: %v",
				fx.Kind, fx.Machine, r.Total, r.Violations)
		})
	}
}

func TestReportLimitAndTruncation(t *testing.T) {
	d := cleanDataset()
	// Corrupt every m2 sample's session state: 4 violations.
	for i := range d.Samples {
		if d.Samples[i].Machine == "lab1-m2" {
			d.Samples[i].SessionUser = ""
		}
	}
	r := check.Check(d, check.Options{Limit: 2})
	if r.Total != 4 {
		t.Fatalf("Total = %d, want 4", r.Total)
	}
	if len(r.Violations) != 2 {
		t.Fatalf("retained %d violations, want 2", len(r.Violations))
	}
	if !r.Truncated() {
		t.Error("Truncated() = false")
	}
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "4 violations") {
		t.Errorf("Err() = %v, want total count", err)
	}
}

func TestViolationString(t *testing.T) {
	v := check.Violation{Kind: check.KindDuplicateSample, Machine: "lab1-m3", Iter: 55, Msg: "two samples"}
	want := "duplicate-sample machine=lab1-m3 iter=55: two samples"
	if got := v.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	dl := check.Violation{Kind: check.KindIterationOrder, Iter: -1, Msg: "msg"}
	if got := dl.String(); got != "iteration-order: msg" {
		t.Errorf("dataset-level String() = %q", got)
	}
}

// feedStream pushes a dataset through a Stream in commit order
// (samples of iteration i, then its iteration record).
func feedStream(st *check.Stream, d *trace.Dataset) {
	for _, it := range d.Iterations {
		for i := range d.Samples {
			if d.Samples[i].Iter == it.Iter {
				st.Sample(&d.Samples[i])
			}
		}
		st.Iteration(it)
	}
}

func TestStreamCleanRun(t *testing.T) {
	d := cleanDataset()
	st := check.NewStream(d.Start, d.End, d.Period, check.Options{})
	feedStream(st, d)
	r := st.Report()
	if !r.OK() {
		for _, v := range r.Violations {
			t.Errorf("unexpected violation: %s", v)
		}
	}
	if r.Samples != len(d.Samples) || r.Iterations != len(d.Iterations) || r.Machines != 2 {
		t.Errorf("coverage = %d/%d/%d", r.Samples, r.Iterations, r.Machines)
	}
}

func TestStreamDetectsRegressionsAndAccounting(t *testing.T) {
	d := cleanDataset()
	// Uptime regression within m2's boot.
	d.Samples[sampleAt(t, d, "lab1-m2", 2)].Uptime = time.Second
	// Accounting: iteration 3 claims 5 responses for 2 samples.
	d.Iterations[3].Responded = 5
	d.Iterations[3].Attempted = 5

	st := check.NewStream(d.Start, d.End, d.Period, check.Options{})
	feedStream(st, d)
	r := st.Report()
	kinds := map[check.Kind]bool{}
	for _, v := range r.Violations {
		kinds[v.Kind] = true
	}
	if !kinds[check.KindCounterRegression] {
		t.Error("stream missed the uptime regression")
	}
	if !kinds[check.KindResponseAccounting] {
		t.Error("stream missed the response-accounting mismatch")
	}
}

func TestStreamGridBounds(t *testing.T) {
	d := cleanDataset()
	// A sample claiming iteration 0 but timed inside iteration 1's window.
	d.Samples[sampleAt(t, d, "lab1-m1", 0)].Time = t0.Add(period + time.Minute)

	st := check.NewStream(d.Start, d.End, d.Period, check.Options{})
	n := 0
	for i := range d.Samples {
		n += st.Sample(&d.Samples[i])
	}
	if n == 0 {
		t.Fatal("no violations returned from Sample()")
	}
	found := false
	for _, v := range st.Report().Violations {
		if v.Kind == check.KindSampleBounds && v.Machine == "lab1-m1" && v.Iter == 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("no sample-bounds violation; got %v", st.Report().Violations)
	}
}

func TestFirstDiff(t *testing.T) {
	type inner struct{ N int }
	type outer struct {
		S    []inner
		T    time.Time
		F    float64
		name string // unexported: compared too
	}
	a := outer{S: []inner{{1}, {2}}, T: t0, F: 1.5, name: "a"}
	b := a
	b.name = "b"
	if d := check.FirstDiff(a, b); d != ".name: a != b" {
		t.Errorf("FirstDiff = %q, want the unexported .name diff", d)
	}
	b.name = a.name
	// Same instant, different location: equal.
	b.T = t0.In(time.FixedZone("X", 3600))
	if d := check.FirstDiff(a, b); d != "" {
		t.Errorf("same-instant times reported different: %s", d)
	}
	b = a
	b.S = []inner{{1}, {3}}
	if d := check.FirstDiff(a, b); !strings.Contains(d, ".S[1].N") {
		t.Errorf("FirstDiff = %q, want path .S[1].N", d)
	}
	b = a
	b.F = 1.5000001
	if d := check.FirstDiff(a, b); !strings.Contains(d, ".F") {
		t.Errorf("FirstDiff = %q, want float diff at .F", d)
	}

	// stats.Running keeps its state unexported: two fed different
	// values differ, and so do weekly profiles differing in one slot.
	var r1, r2 stats.Running
	r1.Add(1)
	r2.Add(2)
	if d := check.FirstDiff(r1, r2); !strings.Contains(d, ".Sum.lo") {
		t.Errorf("FirstDiff(Running fed 1, Running fed 2) = %q, want a .Sum.lo diff", d)
	}
	var w1, w2 stats.WeeklyProfile
	slot3 := time.Date(2003, 10, 6, 0, 45, 0, 0, time.UTC) // Monday 00:45
	w1.Add(slot3, 10)
	w2.Add(slot3, 20)
	if d := check.FirstDiff(&w1, &w2); !strings.HasPrefix(d, ".Slots[3].") {
		t.Errorf("FirstDiff of profiles differing in slot 3 = %q, want a .Slots[3] diff", d)
	}
}

func TestDiffDatasets(t *testing.T) {
	a, b := cleanDataset(), cleanDataset()
	if d := check.DiffDatasets(a, b); d != "" {
		t.Fatalf("identical datasets diff: %s", d)
	}
	b.Samples[3].FreeDiskGB += 0.001
	d := check.DiffDatasets(a, b)
	if !strings.Contains(d, "FreeDiskGB") || !strings.Contains(d, "machine=") {
		t.Errorf("DiffDatasets = %q, want FreeDiskGB with machine coordinate", d)
	}
	b = cleanDataset()
	b.Iterations = b.Iterations[:3]
	if d := check.DiffDatasets(a, b); !strings.Contains(d, ".Iterations: length") {
		t.Errorf("DiffDatasets = %q, want iteration length diff", d)
	}
}
