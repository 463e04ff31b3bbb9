package ddc

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"winlab/internal/machine"
	"winlab/internal/probe"
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

// TestConcurrentPrepareWithMemo drives DatasetSink.Prepare the way ddcd's
// probing workers do — concurrently, commits replayed in machine order —
// over iterations whose static blocks hit the memo, change (a hardware
// refresh) and hit again. The dataset must equal the serial Post path's;
// under -race (make verify) this is the memo's data-race check.
func TestConcurrentPrepareWithMemo(t *testing.T) {
	f := newMemoFleet(300)
	end := t0.Add(6 * 15 * time.Minute)
	serial := NewDatasetSink(t0, end, 15*time.Minute, nil)
	concurrent := NewDatasetSink(t0, end, 15*time.Minute, nil)
	for iter := 0; iter < 5; iter++ {
		at := t0.Add(time.Duration(iter) * 15 * time.Minute)
		reports := make([][]byte, len(f.ids))
		for i := range f.ids {
			sn := f.snapshot(i, at)
			if iter >= 2 && i%3 == 0 {
				sn.RAMMB = 1024 // refreshed hardware: a memo miss, then new hits
			}
			reports[i] = probe.AppendRender(nil, sn)
			serial.Post(iter, f.ids[i], reports[i], nil)
		}
		commits := make([]func(), len(f.ids))
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(f.ids); i += 4 {
					commits[i] = concurrent.Prepare(iter, f.ids[i], reports[i], nil)
				}
			}(w)
		}
		wg.Wait()
		for _, c := range commits {
			c()
		}
		info := IterationInfo{Iter: iter, Start: at, End: at, Attempted: len(f.ids), Responded: len(f.ids)}
		serial.OnIteration(info)
		concurrent.OnIteration(info)
	}
	want, err := serial.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	got, err := concurrent.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Samples) != len(want.Samples) {
		t.Fatalf("%d samples, serial path %d", len(got.Samples), len(want.Samples))
	}
	for i := range want.Samples {
		if !reflect.DeepEqual(got.Samples[i], want.Samples[i]) {
			t.Fatalf("sample %d differs:\n got %+v\nwant %+v", i, got.Samples[i], want.Samples[i])
		}
	}
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

// BenchmarkWallCollectorPrepare is ddcd's collection path in process: a
// WallCollector sweeping 1,000 machines with the parse on its probing
// workers (DatasetSink.Prepare). The probe is an in-process render, so
// the sink's parse is as large a share of a probe as it gets, which is
// where workers contending on the sink's one parser would show. One op is
// one sweep; run it with a fixed -benchtime (e.g. 100x), as the sink keeps
// every sample.
func BenchmarkWallCollectorPrepare(b *testing.B) {
	const n = 1000
	f := newMemoFleet(n)
	src := memoSource{f: f, idx: make(map[string]int, n)}
	for i, id := range f.ids {
		src.idx[id] = i
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			at := t0
			sink := NewDatasetSink(t0, t0.AddDate(1, 0, 0), 15*time.Minute, nil)
			coll := &WallCollector{
				Cfg:     Config{Machines: f.ids, Period: time.Nanosecond},
				Exec:    &Direct{Source: src, Now: func() time.Time { return at }},
				Prepare: sink.Prepare,
				Workers: workers,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at = at.Add(15 * time.Minute)
				if _, err := coll.Run(1, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/probe")
		})
	}
}
