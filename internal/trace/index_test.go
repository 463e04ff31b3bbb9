package trace

import (
	"testing"
	"time"
)

func TestIndexSpansAndOrder(t *testing.T) {
	d := newDataset()
	ix := d.Freeze()

	if got := ix.Machines(); len(got) != 2 || got[0] != "M1" || got[1] != "M2" {
		t.Fatalf("Machines() = %v", got)
	}
	if n := len(ix.Samples("M1")); n != 4 {
		t.Errorf("M1 samples = %d, want 4", n)
	}
	if n := len(ix.Samples("M2")); n != 2 {
		t.Errorf("M2 samples = %d, want 2", n)
	}
	if ix.Samples("nope") != nil {
		t.Error("unknown machine should yield nil")
	}
	// Spans alias the dataset's sorted backing array.
	ss := ix.Samples("M1")
	if &ss[0] != &d.Samples[0] {
		t.Error("span does not alias the dataset samples")
	}
	// Cached aggregates match the Dataset methods.
	if ix.Attempts() != d.Attempts() {
		t.Errorf("Attempts: idx %d vs dataset %d", ix.Attempts(), d.Attempts())
	}
	if ix.Days() != d.Days() {
		t.Errorf("Days: idx %v vs dataset %v", ix.Days(), d.Days())
	}
	if m := ix.Machine("M2"); m == nil || m.ID != "M2" {
		t.Errorf("Machine(M2) = %+v", m)
	}
	// EachMachine visits in sorted order.
	var order []string
	ix.EachMachine(func(id string, ss []Sample) { order = append(order, id) })
	if len(order) != 2 || order[0] != "M1" || order[1] != "M2" {
		t.Errorf("EachMachine order = %v", order)
	}
}

// TestIndexSecondPassAllocFree is the allocation regression the index
// exists for: once frozen, re-resolving the index and walking its spans
// must not re-sort (zero allocations on the hot read path).
func TestIndexSecondPassAllocFree(t *testing.T) {
	d := newDataset()
	d.Freeze()
	allocs := testing.AllocsPerRun(100, func() {
		ix := d.Index()
		n := 0
		ix.EachMachine(func(id string, ss []Sample) { n += len(ss) })
		if n == 0 || len(ix.Samples("M1")) == 0 {
			t.Fatal("empty derived views")
		}
	})
	if allocs != 0 {
		t.Fatalf("second pass allocates: %v allocs/op (index re-sorting?)", allocs)
	}
}

func TestIndexDetectsStructuralMutation(t *testing.T) {
	d := newDataset()
	ix := d.Index()
	if len(ix.Samples("M3")) != 0 {
		t.Fatal("M3 unexpectedly present")
	}
	// Append a sample for a new machine: stale index must be detected and
	// rebuilt on the next access.
	d.Samples = append(d.Samples, mkSample("M3", t0.Add(15*time.Minute), t0, time.Minute, ""))
	ix2 := d.Index()
	if ix2 == ix {
		t.Fatal("mutated dataset returned the stale index")
	}
	if len(ix2.Samples("M3")) != 1 {
		t.Errorf("rebuilt index missing appended sample")
	}
	if got := ix2.Machines(); len(got) != 3 {
		t.Errorf("rebuilt machines = %v", got)
	}
}

func TestInvalidateIndex(t *testing.T) {
	d := newDataset()
	ix := d.Index()
	// In-place mutation is invisible to the fingerprint...
	d.Samples[0].MemLoadPct = 99
	if d.Index() != ix {
		t.Fatal("in-place mutation unexpectedly invalidated the index")
	}
	// ...until the caller invalidates explicitly.
	d.InvalidateIndex()
	if d.Index() == ix {
		t.Fatal("InvalidateIndex did not drop the cached index")
	}
}

// TestIndexStaleHandleConcurrentReaders exercises the staleness check
// under the race detector: after an in-place edit lands, many readers
// hammer the *stale* handle's Valid concurrently while others re-freeze
// through Dataset.Index(). The atomic staleness flag must be race-clean,
// the stale handle must never report Valid, and every re-frozen index
// must see the edited sample.
func TestIndexStaleHandleConcurrentReaders(t *testing.T) {
	d := newDataset()
	stale := d.Index()
	if !stale.Valid() {
		t.Fatal("fresh index reports !Valid()")
	}

	// Publish the edit before any reader starts (edits between reads,
	// not concurrent with them — concurrent in-place edits of sample
	// fields are a real data race and out of contract). Samples are
	// machine/time sorted after freeze, so [1] is M1@30min.
	edited := d.Samples[1].Time.Add(-time.Minute)
	d.Samples[1].BootTime = edited
	d.Samples[1].Uptime = time.Minute
	d.InvalidateIndex()

	start := make(chan struct{})
	done := make(chan bool, 16)
	for i := 0; i < 16; i++ {
		handle := stale
		if i%2 == 1 {
			handle = nil // reader re-resolves via d.Index() each round
		}
		go func(h *Index) {
			<-start
			ok := true
			for j := 0; j < 100; j++ {
				if h != nil {
					ok = ok && !h.Valid()
					continue
				}
				ix := d.Index()
				ok = ok && ix.Valid() && ix.Samples("M1")[1].BootTime.Equal(edited)
			}
			done <- ok
		}(handle)
	}
	close(start)
	for i := 0; i < 16; i++ {
		if !<-done {
			t.Error("a reader observed a stale index as current")
		}
	}
	if stale.Valid() {
		t.Error("stale handle reports Valid() after the edit")
	}
}

func TestIndexConcurrentReaders(t *testing.T) {
	d := newDataset()
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 50; j++ {
				ix := d.Index()
				ix.EachMachine(func(id string, ss []Sample) {})
				_ = ix.Attempts()
			}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
}
