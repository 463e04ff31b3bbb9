package ddc

import (
	"testing"
	"time"

	"winlab/internal/behavior"
	"winlab/internal/lab"
	"winlab/internal/probe"
	"winlab/internal/sim"
	"winlab/internal/trace"
)

// capWatch counts, from a sink's taps, how often the sample slice moved
// to a new backing array — as seen at iteration boundaries, so a first
// sweep doubling its way up from an empty slice is one move — and how
// many samples those moves copied.
type capWatch struct {
	s             *DatasetSink
	cap, boundary int
	moves, copied int
}

func watchCap(s *DatasetSink) *capWatch {
	w := &capWatch{s: s}
	s.Tap(func(*trace.Sample) {
		if c := cap(s.d.Samples); c != w.cap {
			w.cap = c
			w.copied += len(s.d.Samples) - 1
		}
	}, func(trace.Iteration) {
		if w.cap != w.boundary {
			w.boundary = w.cap
			w.moves++
		}
	})
	return w
}

// feed commits iterations of the given sizes, the first one numbered
// from, period apart from t0.
func feed(s *DatasetSink, from int, sizes []int) {
	sn, _ := pureFake{}.Snapshot("M001", t0)
	report := probe.AppendRender(nil, sn)
	for i, n := range sizes {
		it := from + i
		for k := 0; k < n; k++ {
			s.Post(it, "M001", report, nil)
		}
		at := t0.Add(time.Duration(it) * 15 * time.Minute)
		s.OnIteration(IterationInfo{Iter: it, Start: at, End: at, Attempted: n, Responded: n})
	}
}

func TestSinkReserveRule(t *testing.T) {
	period := 15 * time.Minute
	steady := make([]int, 400)
	for i := range steady {
		steady[i] = 100
	}

	// A steady rate: the first sweep grows by append, the first boundary
	// reserves the rest of the run, and nothing moves again.
	s := NewDatasetSink(t0, t0.Add(400*period), period, nil)
	w := watchCap(s)
	feed(s, 0, steady[:1])
	if got := cap(s.d.Samples); got < 400*100 || got > 400*100*11/10 {
		t.Errorf("after one of 400 iterations of 100 samples cap = %d, want 40000 to 44000", got)
	}
	feed(s, 1, steady[1:])
	if w.moves != 2 || w.copied > 300 {
		t.Errorf("steady run: %d moves copying %d samples, want 2 (first sweep, first reserve) and ≤ 300", w.moves, w.copied)
	}

	// A rate that rises tenfold over the run defeats any estimate from the
	// past; each re-estimate still buys at least append's quarter, so the
	// run copies less than append alone (a sink whose bounds say nothing).
	rising := make([]int, 400)
	for i := range rising {
		rising[i] = 20 + i/2
	}
	s = NewDatasetSink(t0, t0.Add(400*period), period, nil)
	w = watchCap(s)
	feed(s, 0, rising)
	plain := watchCap(NewDatasetSink(time.Time{}, time.Time{}, 0, nil))
	feed(plain.s, 0, rising)
	t.Logf("rising rate: %d moves copying %d samples; append alone: %d moves copying %d", w.moves, w.copied, plain.moves, plain.copied)
	if w.moves > 10 || w.copied >= plain.copied {
		t.Errorf("rising rate: %d moves copying %d samples, want ≤ 10 and fewer than append's %d", w.moves, w.copied, plain.copied)
	}
	if plain.moves < 20 {
		t.Errorf("sink without bounds moved the slice %d times; append's own growth expected", plain.moves)
	}

	// Nothing left to come — the last iteration, or a run going on past
	// the End its sink was given — leaves growth to append.
	s = NewDatasetSink(t0, t0.Add(3*period), period, nil)
	feed(s, 0, steady[:3])
	before := cap(s.d.Samples)
	feed(s, 3, []int{0, 0})
	if got := cap(s.d.Samples); got != before || before >= 400 {
		t.Errorf("cap %d → %d at iteration boundaries past End, want it left alone below 400", before, got)
	}
	s = NewDatasetSink(t0, time.Time{}, period, nil) // End unset: End − last saturates
	feed(s, 0, steady[:3])
	if got := cap(s.d.Samples); got >= 600 {
		t.Errorf("cap %d after 300 samples into a sink with no End", got)
	}
}

// TestSinkReservesOverPaperWeek: seven days of the paper's fleet under the
// behaviour model — a run that starts on a Monday at midnight, so the
// first estimates come from near-empty labs — move the sample slice a
// handful of times; append alone regrows it dozens of times.
func TestSinkReservesOverPaperWeek(t *testing.T) {
	start := time.Date(2003, 10, 6, 0, 0, 0, 0, time.UTC)
	end := start.AddDate(0, 0, 7)
	period := 15 * time.Minute
	fleet := lab.BuildPaperFleet(1)
	eng := sim.New(start)
	behavior.NewModel(behavior.DefaultConfig(1), fleet).Install(eng, start, end)
	ids := make([]string, len(fleet.Machines))
	for i, m := range fleet.Machines {
		ids[i] = m.ID
	}
	sink := NewDatasetSink(start, end, period, nil)
	w := watchCap(sink)
	coll := &ShardedCollector{
		Cfg:    Config{Period: period},
		Exec:   &Direct{Source: lab.Source{Fleet: fleet}, Now: eng.Now},
		Shards: []ShardSpec{{Machines: ids, Post: sink.Post, OnIteration: sink.OnIteration}},
	}
	if err := coll.Install(eng, start, end); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(end)
	coll.Finish()
	n, c := len(sink.d.Samples), cap(sink.d.Samples)
	t.Logf("%d samples, cap %d, slice moved %d times copying %d samples", n, c, w.moves, w.copied)
	if n < 30_000 {
		t.Fatalf("only %d samples collected in seven days", n)
	}
	if w.moves > 6 || w.copied > n {
		t.Errorf("sample slice moved %d times copying %d samples, want ≤ 6 and ≤ %d", w.moves, w.copied, n)
	}
	if c > n*13/10 {
		t.Errorf("cap %d for %d samples: reserve overshoots by more than 30 %%", c, n)
	}
}
