package analysis

import (
	"sync"
	"testing"
	"time"

	"winlab/internal/trace"
)

// TestAllRecordsItsPass pins the record contract: All, MainResults and
// Heatmap leave their pass on the frozen index under their resolved
// options, Recorded hands it back only for those options (Workers aside),
// and every call still runs the engine.
func TestAllRecordsItsPass(t *testing.T) {
	d := streamFixture()
	if Recorded(d.Index(), Options{}) != nil {
		t.Fatal("a fresh index carries a recorded pass")
	}
	res := All(d, Options{})
	if got := Recorded(d.Index(), Options{}); got != res {
		t.Fatal("All's pass is not recorded on the index")
	}
	if got := Recorded(d.Index(), Options{Threshold: DefaultForgottenThreshold, HistBins: 24, Workers: 4}); got != res {
		t.Fatal("options that resolve to the same pass do not find it")
	}
	if Recorded(d.Index(), Options{HistBins: 12}) != nil {
		t.Fatal("a pass recorded with other options was handed out")
	}
	if again := All(d, Options{}); again == res {
		t.Fatal("All served the recorded pass instead of running the engine")
	}

	MainResults(d, 0)
	if Recorded(d.Index(), Options{}) != nil {
		t.Fatal("MainResults(d, 0) recorded a pass under the default threshold")
	}
	MainResults(d, DefaultForgottenThreshold)
	if Recorded(d.Index(), Options{}) == nil {
		t.Fatal("MainResults at the default threshold recorded nothing")
	}
	hm := Heatmap(d, 3*time.Hour)
	if p := Recorded(d.Index(), Options{Threshold: 3 * time.Hour}); p == nil || p.Heatmap != hm {
		t.Fatal("Heatmap's pass is not recorded under its threshold")
	}
}

// TestRecordedPassDiesWithIndex: every way the index is dropped or
// rebuilt drops the recorded pass with it.
func TestRecordedPassDiesWithIndex(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(d *trace.Dataset)
	}{
		{"InvalidateIndex", func(d *trace.Dataset) { d.InvalidateIndex() }},
		{"SortSamples", func(d *trace.Dataset) { d.SortSamples() }},
		{"Freeze", func(d *trace.Dataset) { d.Freeze() }},
		{"appended sample", func(d *trace.Dataset) {
			s := d.Samples[len(d.Samples)-1]
			s.Iter++
			s.Time = s.Time.Add(15 * time.Minute)
			d.Samples = append(d.Samples, s)
		}},
		{"appended iteration", func(d *trace.Dataset) {
			it := d.Iterations[len(d.Iterations)-1]
			it.Iter++
			d.Iterations = append(d.Iterations, it)
		}},
	} {
		d := streamFixture()
		res := All(d, Options{})
		c.edit(d)
		if Recorded(d.Index(), Options{}) != nil {
			t.Errorf("%s: the pass outlived its index", c.name)
		}
		if again := All(d, Options{}); again == res {
			t.Errorf("%s: All returned the old pass", c.name)
		}
	}
}

// TestRecordConcurrent runs passes, lookups and invalidations from
// several goroutines on one dataset (the race detector's case): every
// lookup sees nil or a whole pass of the asked-for options.
func TestRecordConcurrent(t *testing.T) {
	d := streamFixture()
	d.Freeze()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				switch g % 4 {
				case 0:
					All(d, Options{})
				case 1:
					MainResults(d, 0)
				case 2:
					d.InvalidateIndex()
				default:
					if r := Recorded(d.Index(), Options{}); r != nil && r.Table2.Threshold != DefaultForgottenThreshold {
						t.Errorf("lookup got a pass with threshold %v", r.Table2.Threshold)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
