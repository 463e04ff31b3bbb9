package validate

import (
	"testing"
	"time"

	"winlab/internal/analysis"
)

// TestSuiteClean runs the full differential suite on a short experiment:
// every equivalence claim in the repo must hold.
func TestSuiteClean(t *testing.T) {
	if testing.Short() {
		t.Skip("differential suite runs several collection arms")
	}
	fails := Suite(Config{Seed: 1, Days: 3, Workers: 4})
	for _, f := range fails {
		t.Errorf("equivalence broken: %s", f)
	}
}

func TestFailureString(t *testing.T) {
	f := Failure{Check: "trace/tbv1-roundtrip", Detail: ".Samples[3] (machine=m iter=2) .Uptime: 1s != 2s"}
	want := "trace/tbv1-roundtrip: .Samples[3] (machine=m iter=2) .Uptime: 1s != 2s"
	if f.String() != want {
		t.Errorf("String() = %q", f.String())
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Seed != 1 || c.Days != 7 || c.Workers != 8 {
		t.Errorf("withDefaults() = %+v", c)
	}
}

// TestShiftRelationHasTeeth: the week-shift arm holds on a clean run,
// and the same relation with a 3-day shift (which moves every weekday and
// so every weekly slot) does not, so the walk really compares the shifted
// Results rather than passing vacuously.
func TestShiftRelationHasTeeth(t *testing.T) {
	res, err := Run(Config{Seed: 2, Days: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := analysis.All(res.Dataset, analysis.Options{})
	if d := diffShifted(res.Dataset, want, weekShift); d != "" {
		t.Errorf("week shift changed the Results: %s", d)
	}
	if d := diffShifted(res.Dataset, want, 3*24*time.Hour); d == "" {
		t.Error("a 3-day shift left the Results unchanged; the relation compares nothing")
	}
}
