package ddc

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"winlab/internal/machine"
	"winlab/internal/sim"
	"winlab/internal/trace"
)

// TestSnapshotEveryPublishesCommittedPrefixes runs a collection with a
// SnapshotEvery tap and asserts every published clone is exactly the
// committed prefix at its iteration boundary: iterations 0..k complete,
// all of iteration k's samples present, none of iteration k+1's, and no
// storage shared with the live dataset.
func TestSnapshotEveryPublishesCommittedPrefixes(t *testing.T) {
	src := multiSource{ms: map[string]*machine.Machine{}}
	ids := []string{"M1", "M2", "M3"}
	for _, id := range ids {
		m := newMachine(id)
		m.PowerOn(t0.Add(-time.Hour))
		src.ms[id] = m
	}

	eng := sim.New(t0)
	end := t0.Add(8 * 15 * time.Minute)
	sink := NewDatasetSink(t0, end, 15*time.Minute, nil)

	every := 2
	var snaps []*trace.Dataset
	detach := sink.SnapshotEvery(every, func(ds *trace.Dataset) {
		snaps = append(snaps, ds)
	})
	defer detach()

	oneShard{
		Cfg: Config{
			Machines:    ids,
			Period:      15 * time.Minute,
			LatencyOK:   func() time.Duration { return time.Second },
			LatencyFail: func() time.Duration { return 4 * time.Second },
		},
		Exec:        &Direct{Source: src, Now: eng.Now},
		Post:        sink.Post,
		OnIteration: sink.OnIteration,
	}.run(t, eng, t0, end)

	final, err := sink.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	wantSnaps := len(final.Iterations) / every
	if len(snaps) != wantSnaps {
		t.Fatalf("published %d snapshots, want %d (every %d of %d iterations)",
			len(snaps), wantSnaps, every, len(final.Iterations))
	}
	for i, ds := range snaps {
		k := (i + 1) * every // iterations in this snapshot
		if len(ds.Iterations) != k {
			t.Fatalf("snapshot %d has %d iterations, want %d", i, len(ds.Iterations), k)
		}
		lastIter := ds.Iterations[k-1].Iter
		for j := range ds.Samples {
			if ds.Samples[j].Iter > lastIter {
				t.Fatalf("snapshot %d contains sample of uncommitted iteration %d (boundary %d)",
					i, ds.Samples[j].Iter, lastIter)
			}
		}
		// Every committed sample through the boundary must be present.
		want := 0
		for j := range final.Samples {
			if final.Samples[j].Iter <= lastIter {
				want++
			}
		}
		if len(ds.Samples) != want {
			t.Fatalf("snapshot %d has %d samples, want %d through iteration %d",
				i, len(ds.Samples), want, lastIter)
		}
	}
	// No shared storage: growing the live dataset must not disturb a
	// published clone.
	if len(snaps) > 0 && len(snaps[0].Samples) > 0 {
		snap := snaps[0]
		before := snap.Samples[0]
		final.Samples[0].Machine = "tampered"
		if snap.Samples[0] != before {
			t.Fatal("snapshot shares sample storage with the live dataset")
		}
		final.Samples[0] = before
	}
}

// TestSnapshotEveryCopiesNothing: a publish hands out a view of the
// sink's storage, so what it allocates does not grow with the committed
// prefix — a deep copy of the 50,000 samples below would be ≈10 MB.
func TestSnapshotEveryCopiesNothing(t *testing.T) {
	const iters, perIter = 100, 500
	period := 15 * time.Minute
	s := NewDatasetSink(t0, t0.Add(4*iters*period), period, nil)
	var view *trace.Dataset
	detach := s.SnapshotEvery(1, func(ds *trace.Dataset) { view = ds })
	defer detach()
	sizes := make([]int, iters)
	for i := range sizes {
		sizes[i] = perIter
	}
	feed(s, 0, sizes)
	// Room for the measured iteration records, so that what is measured
	// is the publish and not the iteration log's own growth.
	s.mu.Lock()
	s.d.Iterations = slices.Grow(s.d.Iterations, 8)
	s.mu.Unlock()

	var before, after runtime.MemStats
	for k := 0; k < 3; k++ {
		// An empty iteration: nothing is committed, the sample slice has
		// room (reserveLocked), so the boundary's only work is the publish.
		runtime.ReadMemStats(&before)
		feed(s, iters+k, []int{0})
		runtime.ReadMemStats(&after)
		if n := len(view.Samples); n != iters*perIter {
			t.Fatalf("publish %d: view holds %d samples, want %d", k, n, iters*perIter)
		}
		if b := after.TotalAlloc - before.TotalAlloc; b > 4096 {
			t.Fatalf("publish %d of a %d-sample prefix allocated %d bytes, want ≤ 4096", k, iters*perIter, b)
		}
	}
}
