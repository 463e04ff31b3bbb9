package query

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"winlab/internal/analysis"
	"winlab/internal/experiment"
	"winlab/internal/trace"
	"winlab/internal/trace/check"
)

// TestLivePublishMatchesFromScratch drives the resident engine the way
// labmon -query-addr does — a 14-day collection publishing a stamped
// clone every 24 iterations — and holds every epoch's Results to
// analysis.All over a deep copy of the same clone: the fingerprint and
// every field of Results bit-exact, though the engine folds in commit
// order and All in machine order. It also checks that the epochs after
// the first advance one engine rather than restarting it.
func TestLivePublishMatchesFromScratch(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		st := NewStore(analysis.Options{})
		var engine *analysis.Live
		epochs := 0
		var failure string // OnSnapshot runs on the collector's goroutine: no t.Fatal there
		cfg := experiment.Default(seed)
		cfg.Days = 14
		cfg.SnapshotEvery = 24
		cfg.OnSnapshot = func(ds *trace.Dataset) {
			if failure != "" {
				return
			}
			ref := ds.ClonePrefix()
			st.Publish(ds)
			epochs++
			failure = liveMismatch(st, ref, engine)
			if failure != "" {
				failure = fmt.Sprintf("seed %d epoch %d: %s", seed, epochs, failure)
			}
			engine = st.live
		}
		res, err := experiment.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if failure != "" {
			t.Fatal(failure)
		}
		if want := len(res.Dataset.Iterations) / 24; epochs != want || epochs == 0 {
			t.Fatalf("seed %d: %d epochs published, want %d", seed, epochs, want)
		}
	}
}

// liveMismatch compares the Store's current snapshot with a from-scratch
// analysis of ref, a deep copy of the clone it was published from, and
// describes the first disagreement ("" when there is none). prev is the
// engine the previous epoch left resident (nil for the first epoch).
func liveMismatch(st *Store, ref *trace.Dataset, prev *analysis.Live) string {
	if prev != nil && st.live != prev {
		return "the resident engine was replaced; want the tail folded into it"
	}
	if st.Current().ds != nil {
		return "the live snapshot retains its dataset"
	}
	a := st.Current().Aggregates()
	if got, want := a.meta.Fingerprint, fingerprintHex(ref.Index().Fingerprint()); got != want {
		return fmt.Sprintf("fingerprint %s, the frozen clone's is %s", got, want)
	}
	if d := check.FirstDiff(a.res, analysis.All(ref, analysis.Options{})); d != "" {
		return "Results not bit-exact: " + d
	}
	return ""
}

// TestLiveSnapshotIsolation: a snapshot the resident engine produced is
// immutable — publishing later epochs, which fold into the same engine,
// must not change a byte an earlier snapshot serves.
func TestLiveSnapshotIsolation(t *testing.T) {
	d := testDataset(6, 64)
	shuffleCommitOrder(d)
	st := NewStore(analysis.Options{})
	// One origin, grown in place and cloned at every 16th iteration.
	origin := &trace.Dataset{Start: d.Start, End: d.End, Period: d.Period, Machines: d.Machines}
	var snaps []*Snapshot
	var before [][numEndpoints][]byte
	var hists [][]int64 // the session histogram, which no endpoint serves
	for k := 16; k <= 64; k += 16 {
		n := 0
		for n < len(d.Samples) && d.Samples[n].Iter < k {
			n++
		}
		origin.Iterations, origin.Samples = d.Iterations[:k], d.Samples[:n]
		st.Publish(origin.ClonePrefix())
		s := st.Current()
		if s.ds != nil {
			t.Fatalf("epoch %d: a live snapshot holds a *trace.Dataset", s.epoch)
		}
		var bodies [numEndpoints][]byte
		for ep := 0; ep < numEndpoints; ep++ {
			b, err := s.encode(ep)
			if err != nil {
				t.Fatalf("epoch %d endpoint %d: %v", s.epoch, ep, err)
			}
			bodies[ep] = b
		}
		snaps = append(snaps, s)
		before = append(before, bodies)
		hists = append(hists, slices.Clone(s.Aggregates().res.Sessions.Hist.Counts))
	}
	for i, s := range snaps {
		for ep := 0; ep < numEndpoints; ep++ {
			if got, err := s.encode(ep); err != nil || !bytes.Equal(got, before[i][ep]) {
				t.Fatalf("epoch %d endpoint %d: re-encoding after %d later publishes changed the body", s.epoch, ep, len(snaps)-1-i)
			}
		}
		if got := s.Aggregates().res.Sessions.Hist.Counts; !slices.Equal(got, hists[i]) {
			t.Fatalf("epoch %d: session histogram changed after later publishes: %v, was %v", s.epoch, got, hists[i])
		}
	}
}

// shuffleCommitOrder puts a machine-sorted dataset into the order a
// collector commits it: iteration-major, machines within an iteration.
func shuffleCommitOrder(d *trace.Dataset) {
	byIter := map[int][]trace.Sample{}
	for _, s := range d.Samples {
		byIter[s.Iter] = append(byIter[s.Iter], s)
	}
	d.Samples = d.Samples[:0]
	for _, it := range d.Iterations {
		d.Samples = append(d.Samples, byIter[it.Iter]...)
	}
}

// TestLivePublishHostileIter: a stamped clone whose samples name
// iterations its log does not hold (negative, 2⁴⁰, a gap) must publish
// without a panic, allocate nothing sized by those numbers, and skip
// their per-iteration sums, exactly as the file engines do.
func TestLivePublishHostileIter(t *testing.T) {
	period := 15 * time.Minute
	ids := []string{"M1", "M2"}
	for _, tc := range []struct {
		name    string
		logIter []int
		iters   []int // per-sample iteration numbers, each for M1 and M2
		inLog   int
	}{
		{"sample-iters", []int{1, 2, 3, 4}, []int{1, -5, 1 << 40, 4}, 2},
		{"gap", []int{0, 1, 3}, []int{0, 1, 2, 3}, 3},
		{"sparse-log", []int{0, 1 << 40}, []int{0, 1 << 40, -1 << 40, 7}, 2},
	} {
		d := &trace.Dataset{Start: t0, End: t0.Add(8 * period), Period: period}
		for _, id := range ids {
			d.Machines = append(d.Machines, trace.MachineInfo{ID: id, Lab: "L", RAMMB: 256, IntIndex: 1, FPIndex: 1})
		}
		for _, it := range tc.logIter {
			d.Iterations = append(d.Iterations, trace.Iteration{Iter: it, Start: t0, Attempted: 2})
		}
		for i, it := range tc.iters {
			at := t0.Add(time.Duration(i+1) * period)
			for _, id := range ids {
				d.Samples = append(d.Samples, trace.Sample{
					Iter: it, Time: at, Machine: id, Lab: "L",
					BootTime: t0, Uptime: at.Sub(t0), CPUIdle: at.Sub(t0) / 2,
				})
			}
		}
		clone := d.ClonePrefix()

		st := NewStore(analysis.Options{})
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		st.Publish(clone)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
			t.Errorf("%s: publish allocated %d B for a %d-entry log", tc.name, grew, len(tc.logIter))
		}
		if st.Current().ds != nil {
			t.Fatalf("%s: the stamped clone took the deferred path", tc.name)
		}
		res := st.Current().Aggregates().res
		if got, want := res.Table2.Both.Samples, 2*len(tc.iters); got != want {
			t.Errorf("%s: Table 2 counted %d samples, want %d", tc.name, got, want)
		}
		on := 0
		for _, p := range res.Availability.Points {
			on += p.PoweredOn
		}
		if on != 2*tc.inLog {
			t.Errorf("%s: availability counted %d samples, want the %d in the log", tc.name, on, 2*tc.inLog)
		}
		if d := check.FirstDiff(res, analysis.All(d, analysis.Options{})); d != "" {
			t.Errorf("%s: live results differ from All: %s", tc.name, d)
		}
	}
}

// TestPublishLineage: the resident engine continues only a clone of the
// origin it last absorbed, at the same generation; anything else restarts
// it from the whole clone, and unstamped datasets and PublishResults drop
// it for the deferred path.
func TestPublishLineage(t *testing.T) {
	st := NewStore(analysis.Options{})
	origin := testDataset(4, 32)
	shuffleCommitOrder(origin)
	live := func(name string, ds *trace.Dataset) *analysis.Live {
		t.Helper()
		ref := ds.ClonePrefix()
		st.Publish(ds)
		if st.Current().ds != nil || st.live == nil {
			t.Fatalf("%s: a stamped clone took the deferred path", name)
		}
		if d := liveMismatch(st, ref, nil); d != "" {
			t.Fatalf("%s: %s", name, d)
		}
		return st.live
	}
	first := live("first clone", origin.ClonePrefix())
	if live("same origin", origin.ClonePrefix()) != first {
		t.Fatal("a continuing clone restarted the engine")
	}
	if live("other origin", testDataset(3, 8).ClonePrefix()) == first {
		t.Fatal("a clone of another dataset was folded into the engine")
	}
	second := live("origin again", origin.ClonePrefix())
	origin.SortSamples()
	if live("re-sorted origin", origin.ClonePrefix()) == second {
		t.Fatal("a clone of a re-sorted origin was folded into the engine")
	}

	// A machine whose samples go back in time cannot be folded in commit
	// order: the deferred All path takes it, and agrees with All.
	back := testDataset(2, 8)
	back.Samples[0].Time = back.Samples[0].Time.Add(time.Hour)
	st.Publish(back.ClonePrefix())
	if st.Current().ds == nil || st.live != nil {
		t.Fatal("an out-of-order clone was folded into the engine")
	}

	st.Publish(origin.ClonePrefix())
	st.Publish(testDataset(2, 4))
	if st.live != nil || st.Current().ds == nil {
		t.Fatal("an unstamped dataset did not drop the engine for the deferred path")
	}
	st.Publish(origin.ClonePrefix())
	st.PublishResults(st.Current().Aggregates().res, Info{})
	if st.live != nil {
		t.Fatal("PublishResults kept the engine")
	}
}
