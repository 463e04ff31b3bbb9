package analysis

import (
	"bytes"
	"compress/gzip"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"winlab/internal/trace"
	"winlab/internal/trace/check"
	"winlab/internal/trace/stream"
)

// streamFixture builds a dataset that exercises every artefact: several
// labs and RAM classes, active and forgotten sessions, reboots, SMART
// counters, network counters, sampling gaps wider than 2×period, a
// catalogued machine that never answers, and an iteration with no
// samples.
func streamFixture() *trace.Dataset {
	b := newBuilder(3, "M1", "M2", "M3", "M4")
	b.d.Machines[1].Lab = "L02"
	b.d.Machines[1].RAMMB = 256
	b.d.Machines[2].Lab = "L02"
	b.d.Machines[3].Lab = "L03" // never answers
	boot1 := t0
	for i := 1; i <= 60; i++ {
		// M1: no login, reboots at iteration 30, one gap > 2×period.
		if i != 20 && i != 21 {
			boot := boot1
			if i >= 30 {
				boot = t0.Add(30 * 15 * time.Minute).Add(-3 * time.Minute)
			}
			s := b.sample(i, "M1", boot, 0.93, "", time.Time{})
			s.MemLoadPct = 30 + i%7
			s.SwapLoadPct = i % 5
			s.FreeDiskGB = 40 - float64(i)*0.01
			s.PowerCycles = int64(100 + i/30)
			s.PowerOnHours = int64(900 + i/4)
			s.SentBytes = uint64(i) * 10000
			s.RecvBytes = uint64(i) * 90000
		}
		// M2: session from boot, becomes forgotten past 10 h.
		s := b.sample(i, "M2", boot1, 0.71, "bob", boot1)
		s.MemLoadPct = 60
		s.SwapLoadPct = 10
		s.FreeDiskGB = 5.5
		s.PowerCycles = 300
		s.PowerOnHours = 4000
		// M3: answers every third iteration only.
		if i%3 == 0 {
			s := b.sample(i, "M3", boot1, 0.999, "", time.Time{})
			s.Lab = "L02"
			s.MemLoadPct = 15
			s.PowerCycles = int64(50 + i)
			s.PowerOnHours = int64(200 + i)
		}
	}
	// An iteration nobody answered.
	b.d.Iterations = append(b.d.Iterations, trace.Iteration{
		Iter: 99, Start: t0.Add(99 * 15 * time.Minute), Attempted: 4,
	})
	return b.d
}

// encodeTB freezes the dataset (the in-memory analysis order) and
// returns its canonical machine-contiguous TBv1 bytes.
func encodeTB(t *testing.T, d *trace.Dataset) []byte {
	t.Helper()
	d.Freeze()
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, d); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	return buf.Bytes()
}

func allStreamOver(t *testing.T, tb []byte, opts Options, runLimit int) *Results {
	t.Helper()
	c, err := stream.New(bytes.NewReader(tb))
	if err != nil {
		t.Fatalf("stream.New: %v", err)
	}
	if runLimit > 0 {
		c.RunLimit = runLimit
	}
	res, err := AllStream(c, opts)
	if err != nil {
		t.Fatalf("AllStream: %v", err)
	}
	return res
}

// TestAllStreamMatchesAll is the bit-exactness claim: sequential
// AllStream over the canonical TBv1 encoding reproduces All field for
// field, float bits included.
func TestAllStreamMatchesAll(t *testing.T) {
	d := streamFixture()
	want := All(d, Options{Workers: 1})
	tb := encodeTB(t, d)
	for _, limit := range []int{0, 1, 2, 7} {
		got := allStreamOver(t, tb, Options{Workers: 1}, limit)
		if diff := check.FirstDiff(want, got); diff != "" {
			t.Errorf("RunLimit=%d: AllStream diverges from All: %s", limit, diff)
		}
	}
}

// TestAllStreamNonDefaultOptions pins the option plumbing (threshold,
// histogram shape, session-age depth, unweighted equivalence).
func TestAllStreamNonDefaultOptions(t *testing.T) {
	d := streamFixture()
	opts := Options{
		Threshold:             4 * time.Hour,
		HistCap:               48 * time.Hour,
		HistBins:              12,
		SessionAgeHours:       8,
		UnweightedEquivalence: true,
		Workers:               1,
	}
	want := All(d, opts)
	got := allStreamOver(t, encodeTB(t, d), opts, 0)
	if diff := check.FirstDiff(want, got); diff != "" {
		t.Errorf("AllStream diverges from All: %s", diff)
	}
}

// TestAllStreamGzip runs the same differential through the gzip
// sniffing path.
func TestAllStreamGzip(t *testing.T) {
	d := streamFixture()
	want := All(d, Options{Workers: 1})
	tb := encodeTB(t, d)
	var gzBuf bytes.Buffer
	gw := gzip.NewWriter(&gzBuf)
	if _, err := gw.Write(tb); err != nil {
		t.Fatal(err)
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	got := allStreamOver(t, gzBuf.Bytes(), Options{Workers: 1}, 0)
	if diff := check.FirstDiff(want, got); diff != "" {
		t.Errorf("AllStream(gzip) diverges from All: %s", diff)
	}
}

// approxEq checks relative closeness for the merged-float comparisons
// of the parallel test.
func approxEq(a, b float64) bool {
	if a == b {
		return true
	}
	tol := 1e-9 * math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol
}

// TestAllStreamParallel: sharded accumulation keeps every integer
// artefact exact and every merged float within documented epsilon.
func TestAllStreamParallel(t *testing.T) {
	d := streamFixture()
	want := All(d, Options{Workers: 1})
	tb := encodeTB(t, d)
	for _, workers := range []int{2, 3, 8} {
		got := allStreamOver(t, tb, Options{Workers: workers}, 2)

		// Integer artefacts: exact.
		if got.Table2.Both.Samples != want.Table2.Both.Samples ||
			got.Table2.NoLogin.Samples != want.Table2.NoLogin.Samples ||
			got.Table2.WithLogin.Samples != want.Table2.WithLogin.Samples {
			t.Errorf("workers=%d: sample counts diverge", workers)
		}
		if got.Table2.Reclass != want.Table2.Reclass {
			t.Errorf("workers=%d: reclass %+v != %+v", workers, got.Table2.Reclass, want.Table2.Reclass)
		}
		if diff := check.FirstDiff(want.Availability, got.Availability); diff != "" {
			t.Errorf("workers=%d: availability: %s", workers, diff)
		}
		if got.Sessions.Count != want.Sessions.Count {
			t.Errorf("workers=%d: session count %d != %d", workers, got.Sessions.Count, want.Sessions.Count)
		}
		if diff := check.FirstDiff(want.Sessions.Hist.Counts, got.Sessions.Hist.Counts); diff != "" {
			t.Errorf("workers=%d: session histogram: %s", workers, diff)
		}
		if got.PowerCycles.TotalCycles != want.PowerCycles.TotalCycles ||
			got.PowerCycles.DetectedSessions != want.PowerCycles.DetectedSessions {
			t.Errorf("workers=%d: power cycles diverge", workers)
		}
		if diff := check.FirstDiff(want.Uptimes, got.Uptimes); diff != "" {
			t.Errorf("workers=%d: uptimes: %s", workers, diff)
		}

		// Merged floats: epsilon.
		pairs := [][2]float64{
			{want.Table2.Both.CPUIdlePct, got.Table2.Both.CPUIdlePct},
			{want.Table2.Both.RAMLoadPct, got.Table2.Both.RAMLoadPct},
			{want.Table2.NoLogin.SentBps, got.Table2.NoLogin.SentBps},
			{want.Sessions.Mean.Hours(), got.Sessions.Mean.Hours()},
			{want.Equivalence.TotalRatio, got.Equivalence.TotalRatio},
			{want.Capacity.AvgFreeRAMMBPerMachine, got.Capacity.AvgFreeRAMMBPerMachine},
			{want.Capacity.FleetFreeDiskTB, got.Capacity.FleetFreeDiskTB},
		}
		for i, p := range pairs {
			if !approxEq(p[0], p[1]) {
				t.Errorf("workers=%d: float artefact %d: %v != %v", workers, i, p[0], p[1])
			}
		}
		for lb := range want.Labs {
			if want.Labs[lb].Lab != got.Labs[lb].Lab || want.Labs[lb].Machines != got.Labs[lb].Machines {
				t.Errorf("workers=%d: lab %d identity diverges", workers, lb)
			}
			if !approxEq(want.Labs[lb].CPUIdlePct, got.Labs[lb].CPUIdlePct) {
				t.Errorf("workers=%d: lab %s cpu %v != %v", workers, want.Labs[lb].Lab,
					want.Labs[lb].CPUIdlePct, got.Labs[lb].CPUIdlePct)
			}
		}
	}
}

// TestAllStreamRejectsInterleaved: a TBv1 file whose machine runs are
// interleaved (written from an unfrozen dataset) must be rejected, not
// silently mis-analysed.
func TestAllStreamRejectsInterleaved(t *testing.T) {
	b := newBuilder(1, "M1", "M2")
	for i := 1; i <= 4; i++ { // builder appends M1,M2,M1,M2,... in iteration order
		b.sample(i, "M1", t0, 0.9, "", time.Time{})
		b.sample(i, "M2", t0, 0.9, "", time.Time{})
	}
	var buf bytes.Buffer // no Freeze: samples stay interleaved
	if err := trace.WriteBinary(&buf, b.d); err != nil {
		t.Fatal(err)
	}
	c, err := stream.New(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AllStream(c, Options{Workers: 1}); err == nil {
		t.Fatal("interleaved stream accepted")
	}
	c2, err := stream.New(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AllStream(c2, Options{Workers: 2}); err == nil {
		t.Fatal("interleaved stream accepted by parallel path")
	}
}

// bigTrace writes a machine-contiguous TBv1 trace with nMach machines ×
// nIter iterations to dir and returns its path and in-memory decoded
// size in bytes.
func bigTrace(t *testing.T, dir string, nMach, nIter int) (string, int64) {
	t.Helper()
	d := &trace.Dataset{
		Start:  t0,
		End:    t0.Add(time.Duration(nIter) * 15 * time.Minute),
		Period: 15 * time.Minute,
	}
	for m := 0; m < nMach; m++ {
		lab := "L0" + string(rune('1'+m%4))
		d.Machines = append(d.Machines, trace.MachineInfo{
			ID:  "m" + string(rune('0'+m/100%10)) + string(rune('0'+m/10%10)) + string(rune('0'+m%10)),
			Lab: lab, RAMMB: 256 << (m % 2), DiskGB: 74.5, IntIndex: 30, FPIndex: 34,
		})
	}
	for i := 0; i < nIter; i++ {
		d.Iterations = append(d.Iterations, trace.Iteration{
			Iter: i, Start: t0.Add(time.Duration(i) * 15 * time.Minute),
			Attempted: nMach, Responded: nMach,
		})
	}
	// Machine-major generation: zero-padded IDs sort in generation
	// order, so the encoding is canonical without a Freeze.
	for m := 0; m < nMach; m++ {
		id, lab := d.Machines[m].ID, d.Machines[m].Lab
		boot := t0
		for i := 0; i < nIter; i++ {
			at := t0.Add(time.Duration(i) * 15 * time.Minute)
			if i%500 == 499 {
				boot = at.Add(-time.Minute)
			}
			up := at.Sub(boot)
			s := trace.Sample{
				Iter: i, Time: at, Machine: id, Lab: lab,
				BootTime: boot, Uptime: up,
				CPUIdle:     time.Duration(0.9 * float64(up)),
				MemLoadPct:  20 + (m+i)%60,
				SwapLoadPct: i % 10,
				DiskGB:      74.5, FreeDiskGB: 40 - float64(i%100)*0.1,
				PowerCycles: int64(100 + i/500), PowerOnHours: int64(1000 + i/4),
				SentBytes: uint64(i) * 5000, RecvBytes: uint64(i) * 42000,
			}
			if (m+i)%5 == 0 {
				s.SessionUser = "u"
				s.SessionStart = boot
			}
			d.Samples = append(d.Samples, s)
		}
	}
	decoded := int64(len(d.Samples)) * int64(unsafe.Sizeof(trace.Sample{}))
	path := filepath.Join(dir, "big.tb")
	if err := trace.WriteFile(path, d); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	return path, decoded
}

// TestAllStreamMemoryCeiling is the out-of-core gate (`make
// stream-smoke`): stream-analyze a trace whose decoded form is several
// times larger than an enforced soft memory limit, and assert the live
// heap never approaches the decoded size. This fails if any code path
// rematerialises the dataset.
func TestAllStreamMemoryCeiling(t *testing.T) {
	path, decoded := bigTrace(t, t.TempDir(), 64, 3000) // 192k samples, ~40 MB decoded
	const ceiling = 16 << 20
	if decoded < 2*ceiling {
		t.Fatalf("fixture too small: decoded %d B vs ceiling %d B", decoded, ceiling)
	}

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	baseline := ms.HeapAlloc
	old := debug.SetMemoryLimit(int64(baseline) + ceiling)
	defer debug.SetMemoryLimit(old)

	var peak atomic.Uint64
	done := make(chan struct{})
	go func() {
		defer close(done)
		var m runtime.MemStats
		for {
			runtime.ReadMemStats(&m)
			for {
				p := peak.Load()
				if m.HeapAlloc <= p || peak.CompareAndSwap(p, m.HeapAlloc) {
					break
				}
			}
			select {
			case <-done:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()

	c, err := stream.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := AllStream(c, Options{Workers: 1})
	done <- struct{}{}
	<-done
	if err != nil {
		t.Fatalf("AllStream: %v", err)
	}
	if res.Table2.Both.Samples != 64*3000 {
		t.Fatalf("samples = %d, want %d", res.Table2.Both.Samples, 64*3000)
	}

	grew := int64(peak.Load()) - int64(baseline)
	if grew > ceiling {
		t.Errorf("peak heap grew %d B over baseline, ceiling %d B (decoded trace is %d B)",
			grew, int64(ceiling), decoded)
	}
	t.Logf("decoded %0.1f MB, heap growth %0.1f MB (ceiling %d MB)",
		float64(decoded)/(1<<20), float64(grew)/(1<<20), ceiling>>20)
	_ = os.Remove(path)
}

// TestAllStreamHostileIter feeds sample and log iteration numbers far
// outside any real run — negative, 2⁴⁰, a log with a 2⁴⁰ gap — through
// the TBv1 decoder into the engine. Nothing may panic, samples outside
// the log still count in Table 2 but in no per-iteration series, and
// what the pass allocates stays bounded by the log's length, never by an
// iteration number.
func TestAllStreamHostileIter(t *testing.T) {
	for _, tc := range []struct {
		name    string
		logIter []int // iteration numbers of the header's log
		iters   []int // per-sample iteration numbers, M1 then M2
		inLog   int   // samples whose Iter is in the log
	}{
		{"sample-iters", []int{1, 2, 3, 4}, []int{1, -5, 1 << 40, 4}, 2},
		{"sparse-log", []int{0, 1 << 40}, []int{0, 1 << 40, -1 << 40, 7}, 2},
	} {
		b := newBuilder(1, "M1", "M2")
		for i, it := range tc.iters {
			for _, id := range []string{"M1", "M2"} {
				s := b.sample(i+1, id, t0, 0.9, "", time.Time{})
				s.Iter = it
			}
		}
		b.d.Iterations = b.d.Iterations[:0]
		for _, it := range tc.logIter {
			b.d.Iterations = append(b.d.Iterations, trace.Iteration{Iter: it, Start: t0, Attempted: 2})
		}
		tb := encodeTB(t, b.d)

		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res := allStreamOver(t, tb, Options{Workers: 1}, 0)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
			t.Errorf("%s: the pass allocated %d B for a %d-entry log", tc.name, grew, len(tc.logIter))
		}
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
	}
}
