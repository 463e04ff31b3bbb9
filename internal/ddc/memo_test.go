package ddc

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"winlab/internal/machine"
	"winlab/internal/probe"
	"winlab/internal/trace"
)

// memoFleet is an n-machine fleet of distinct hardware — every serial and
// MAC set its own, 100 machines to a lab — whose snapshots move with the
// instant, a few of them under one of a handful of users.
type memoFleet struct {
	ids []string
}

func newMemoFleet(n int) memoFleet {
	f := memoFleet{ids: make([]string, n)}
	for i := range f.ids {
		f.ids[i] = fmt.Sprintf("G%03d-m%06d", i/100, i)
	}
	return f
}

func (f memoFleet) snapshot(i int, at time.Time) machine.Snapshot {
	id := f.ids[i]
	boot := t0.Add(-time.Duration(i%72) * time.Hour)
	sn := machine.Snapshot{
		Time: at, ID: id, Lab: id[:4],
		CPUModel: "Intel(R) Pentium(R) 4 CPU 2.40GHz", CPUGHz: 2.4,
		RAMMB: 512, SwapMB: 768, DiskGB: 74.5,
		Serial:   "WD-" + id,
		MACs:     []string{"02:57:" + id, "02:58:" + id},
		OS:       "Windows XP",
		BootTime: boot, Uptime: at.Sub(boot), CPUIdle: at.Sub(boot) / 2,
		MemLoadPct: i % 101, SwapLoadPct: (i + int(at.Unix())) % 101,
		FreeDiskGB:  float64(i%60000) / 1000,
		PowerCycles: int64(i % 2000), PowerOnHours: int64(i % 30000),
		SentBytes: uint64(at.Unix()), RecvBytes: uint64(i) * 7,
	}
	if i%5 == 0 {
		sn.SessionUser = fmt.Sprintf("student%02d", i%50)
		sn.SessionStart = at.Add(-time.Duration(i%90) * time.Minute)
	}
	return sn
}

// TestSinkParseAllocFreeAtGridScale: a sink collecting 50,000 machines
// keeps one static-block memo entry per machine — no cap — so after the
// first iteration has recorded them, parsing a report allocates nothing:
// the machine ID is the collector's string and the serials and MAC sets
// come from the memo. That holds in fleet order and out of it; and every
// parse equals a fresh parser's.
func TestSinkParseAllocFreeAtGridScale(t *testing.T) {
	const n = 50000
	f := newMemoFleet(n)
	sink := NewDatasetSink(t0, t0.Add(24*time.Hour), 15*time.Minute, nil)
	var arena []byte
	ends := make([]int, n)
	var mallocs uint64
	var ms runtime.MemStats
	for iter, order := range []string{"fleet", "fleet", "reversed"} {
		at := t0.Add(time.Duration(iter) * 15 * time.Minute)
		arena = arena[:0]
		for i := range f.ids {
			sn := f.snapshot(i, at)
			arena = probe.AppendReport(arena, &sn)
			ends[i] = len(arena)
		}
		report := func(i int) []byte {
			if i == 0 {
				return arena[:ends[0]]
			}
			return arena[ends[i-1]:ends[i]]
		}
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		for k := range f.ids {
			i := k
			if order == "reversed" {
				i = n - 1 - k
			}
			if _, err := sink.parse(f.ids[i], report(i)); err != nil {
				t.Fatalf("iteration %d machine %s: %v", iter, f.ids[i], err)
			}
		}
		runtime.ReadMemStats(&ms)
		if iter > 0 {
			mallocs += ms.Mallocs - before
		}
		for i := 0; i < n; i += 997 {
			got, err := sink.parse(f.ids[i], report(i))
			want, werr := probe.NewParser().ParseBytes(report(i))
			if err != nil || werr != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("iteration %d machine %s: sink parse differs from a fresh parser's (%v, %v):\n got %+v\nwant %+v",
					iter, f.ids[i], err, werr, got, want)
			}
		}
	}
	if mallocs != 0 {
		t.Errorf("%d machines: parsing two warm iterations allocated %d objects, want 0", n, mallocs)
	}
}

// TestWallCollectorWorkersKeepTrace: probing workers change when a probe
// runs, not what the sink records. WallCollector with 1 and with 4
// workers, Direct over a memoFleet whose static blocks hit the sink's
// memo, change (a hardware refresh) and hit again, into DatasetSink.Post:
// the samples must be identical, and the iteration records identical
// apart from their wall-clock Start/End.
func TestWallCollectorWorkersKeepTrace(t *testing.T) {
	f := newMemoFleet(300)
	src := memoSource{f: f, idx: make(map[string]int, len(f.ids))}
	for i, id := range f.ids {
		src.idx[id] = i
	}
	const iters = 5
	end := t0.Add(iters * 15 * time.Minute)
	run := func(workers int) *trace.Dataset {
		at := t0
		sink := NewDatasetSink(t0, end, 15*time.Minute, nil)
		coll := &WallCollector{
			Cfg:     Config{Machines: f.ids, Period: time.Nanosecond},
			Exec:    &Direct{Source: refreshSource{src, t0.Add(30 * time.Minute)}, Now: func() time.Time { return at }},
			Post:    sink.Post,
			Workers: workers,
			OnIteration: func(info IterationInfo) {
				sink.OnIteration(info)
				at = at.Add(15 * time.Minute) // the sweep's workers have all returned
			},
		}
		if _, err := coll.Run(context.Background(), iters); err != nil {
			t.Fatal(err)
		}
		ds, err := sink.Dataset()
		if err != nil {
			t.Fatal(err)
		}
		for i := range ds.Iterations {
			ds.Iterations[i].Start, ds.Iterations[i].End = time.Time{}, time.Time{}
		}
		return ds
	}
	want, got := run(1), run(4)
	if len(want.Samples) != iters*len(f.ids) || len(want.Iterations) != iters {
		t.Fatalf("degenerate collection: %d samples, %d iterations", len(want.Samples), len(want.Iterations))
	}
	for i := range want.Samples {
		if !reflect.DeepEqual(got.Samples[i], want.Samples[i]) {
			t.Fatalf("sample %d differs with 4 workers:\n got %+v\nwant %+v", i, got.Samples[i], want.Samples[i])
		}
	}
	if !reflect.DeepEqual(got.Iterations, want.Iterations) {
		t.Errorf("iteration records differ with 4 workers:\n got %+v\nwant %+v", got.Iterations, want.Iterations)
	}
}

// TestSinkConcurrentPost: DatasetSink is safe for concurrent use — its
// one lock covers the parser's memo as well as the dataset. Four
// goroutines post a memoFleet's reports at once, every static block a
// memo miss and then a hit; every report must land as one sample. Under
// -race (make verify) this is the memo's data-race check.
func TestSinkConcurrentPost(t *testing.T) {
	f := newMemoFleet(200)
	sink := NewDatasetSink(t0, t0.Add(time.Hour), 15*time.Minute, nil)
	const workers, iters = 4, 2
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; iter < iters; iter++ {
				at := t0.Add(time.Duration(iter) * 15 * time.Minute)
				for i := w; i < len(f.ids); i += workers {
					sink.Post(iter, f.ids[i], probe.AppendRender(nil, f.snapshot(i, at)), nil)
				}
			}
		}(w)
	}
	wg.Wait()
	ds, err := sink.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Samples) != iters*len(f.ids) {
		t.Errorf("%d samples, want %d", len(ds.Samples), iters*len(f.ids))
	}
}

// refreshSource is a memoSource whose every third machine gets new
// hardware from the instant from on.
type refreshSource struct {
	memoSource
	from time.Time
}

func (s refreshSource) Snapshot(id string, at time.Time) (machine.Snapshot, bool) {
	sn, ok := s.memoSource.Snapshot(id, at)
	if ok && !at.Before(s.from) && s.idx[id]%3 == 0 {
		sn.RAMMB = 1024
	}
	return sn, ok
}

// memoSource serves a memoFleet's snapshots by machine ID.
type memoSource struct {
	f   memoFleet
	idx map[string]int
}

func (s memoSource) Snapshot(id string, at time.Time) (machine.Snapshot, bool) {
	i, ok := s.idx[id]
	if !ok {
		return machine.Snapshot{}, false
	}
	return s.f.snapshot(i, at), true
}
