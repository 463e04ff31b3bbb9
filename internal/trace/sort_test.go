package trace

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// referenceSort is the ordering SortSamples used to be: a reflection-
// swapped stable sort by (machine, time). It stays here as the oracle the
// linear-time ordering is compared with, element for element.
func referenceSort(s []Sample) {
	sort.SliceStable(s, func(i, j int) bool {
		a, b := &s[i], &s[j]
		if a.Machine != b.Machine {
			return a.Machine < b.Machine
		}
		return a.Time.Before(b.Time)
	})
}

var sortT0 = time.Date(2003, 10, 6, 0, 0, 0, 0, time.UTC)

// commitOrdered builds what a collector commits: iteration-major, each
// iteration visiting the responding subset of the fleet in fleet order.
// PowerCycles carries the commit position, so samples with equal keys
// stay distinguishable.
func commitOrdered(rnd *rand.Rand, machines, iters int) []Sample {
	ids := make([]string, machines)
	for m := range ids {
		ids[m] = fmt.Sprintf("L%02d-m%03d", rnd.Intn(12), m)
	}
	var s []Sample
	for it := 0; it < iters; it++ {
		at := sortT0.Add(time.Duration(it) * 15 * time.Minute)
		for m, id := range ids {
			if rnd.Intn(2) == 0 {
				continue
			}
			s = append(s, Sample{
				Iter: it, Machine: id, Lab: id[:3],
				Time:        at.Add(time.Duration(m) * time.Second),
				PowerCycles: int64(len(s)),
			})
		}
	}
	return s
}

func TestSortSamplesMatchesStableSort(t *testing.T) {
	rnd := rand.New(rand.NewSource(20))
	commit := commitOrdered(rnd, 37, 60)
	sorted := append([]Sample(nil), commit...)
	referenceSort(sorted)
	reversed := append([]Sample(nil), sorted...)
	for i, j := 0, len(reversed)-1; i < j; i, j = i+1, j-1 {
		reversed[i], reversed[j] = reversed[j], reversed[i]
	}
	// Equal (machine, time) keys: every sample of an iteration shares one
	// instant and only PowerCycles tells two samples of a machine apart.
	dups := append([]Sample(nil), commit...)
	for i := range dups {
		dups[i].Machine = fmt.Sprintf("m%d", rnd.Intn(5))
		dups[i].Time = sortT0.Add(time.Duration(dups[i].Iter/4) * time.Hour)
	}
	// Time running backwards inside a machine's commit order, as a
	// concatenation of independently collected traces can produce.
	backwards := append([]Sample(nil), commit...)
	for i := range backwards {
		if rnd.Intn(3) == 0 {
			backwards[i].Time = sortT0.Add(time.Duration(rnd.Intn(1000)) * time.Minute)
		}
	}
	shuffled := append([]Sample(nil), commit...)
	rnd.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

	cases := []struct {
		name string
		in   []Sample
	}{
		{"empty", nil},
		{"one-sample", commit[:1]},
		{"commit-order", commit},
		{"already-sorted", sorted},
		{"reversed", reversed},
		{"single-machine", commitOrdered(rnd, 1, 200)},
		{"one-iteration", commitOrdered(rnd, 300, 1)},
		{"duplicate-keys", dups},
		{"time-out-of-order-within-machine", backwards},
		{"shuffled", shuffled},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := append([]Sample(nil), tc.in...)
			referenceSort(want)
			d := &Dataset{Start: sortT0, Period: 15 * time.Minute, Samples: append([]Sample(nil), tc.in...)}
			d.SortSamples()
			if len(d.Samples) != len(want) {
				t.Fatalf("%d samples after sort, want %d", len(d.Samples), len(want))
			}
			for i := range want {
				if d.Samples[i] != want[i] {
					t.Fatalf("sample %d = %+v, stable sort has %+v", i, d.Samples[i], want[i])
				}
			}
			ref := &Dataset{Start: sortT0, Period: 15 * time.Minute, Samples: want}
			if got, want := d.Index().Fingerprint(), ref.Index().Fingerprint(); got != want {
				t.Errorf("fingerprint %016x, stable sort gives %016x", got, want)
			}
		})
	}
}

// TestSortSamplesAllocations pins the cost model: an ordered dataset is
// recognised without allocating, and a commit-ordered one costs the rank
// and destination tables — a fixed number of objects, none per sample.
func TestSortSamplesAllocations(t *testing.T) {
	commit := commitOrdered(rand.New(rand.NewSource(21)), 169, 1200)
	if len(commit) < 100_000 {
		t.Fatalf("fixture has %d samples, want ≥ 100k", len(commit))
	}
	d := &Dataset{Samples: append([]Sample(nil), commit...)}
	d.SortSamples()
	for i := range d.Samples { // the catalogue every collected dataset carries
		if i == 0 || d.Samples[i].Machine != d.Samples[i-1].Machine {
			d.Machines = append(d.Machines, MachineInfo{ID: d.Samples[i].Machine})
		}
	}
	if n := testing.AllocsPerRun(5, d.SortSamples); n != 0 {
		t.Errorf("SortSamples on an ordered dataset allocates %.0f objects, want 0", n)
	}
	perSize := func(samples []Sample) float64 {
		return testing.AllocsPerRun(3, func() {
			copy(d.Samples[:len(samples)], samples)
			d.Samples = d.Samples[:len(samples)]
			d.SortSamples()
		})
	}
	full, tenth := perSize(commit), perSize(commit[:len(commit)/10])
	if full > 8 {
		t.Errorf("SortSamples on %d commit-ordered samples allocates %.0f objects, want ≤ 8", len(commit), full)
	}
	if full > tenth+2 {
		t.Errorf("allocations grow with the sample count: %.0f for %d samples, %.0f for %d",
			full, len(commit), tenth, len(commit)/10)
	}
}
