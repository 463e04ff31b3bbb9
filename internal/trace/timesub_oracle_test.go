package trace

import (
	"math"
	"testing"
	"time"
)

// sameBootTimeSub is SameBootTime as it was before the integer path: the
// time.Time.Sub difference. It stays as the oracle.
func sameBootTimeSub(a, b time.Time) bool {
	d := b.Sub(a)
	if d < 0 {
		d = -d
	}
	return d <= time.Second
}

// The interval formulas as they were, each on its own time.Time.Sub.
func oracleDuration(iv Interval) time.Duration { return iv.B.Time.Sub(iv.A.Time) }

func oracleCPUIdlePct(iv Interval) float64 {
	dt := oracleDuration(iv)
	if dt <= 0 {
		return 0
	}
	p := 100 * float64(iv.B.CPUIdle-iv.A.CPUIdle) / float64(dt)
	if p < 0 {
		return 0
	}
	if p > 100 {
		return 100
	}
	return p
}

func oracleCounterBps(a, b uint64, dt time.Duration) float64 {
	if dt <= 0 || b < a {
		return 0
	}
	return float64(b-a) * 8 / dt.Seconds()
}

// subInstants builds the fuzzed pair of instants: mode 0 is UTC (the
// integer path), 1 a fixed offset, 2 Local, 3 two readings of the
// monotonic clock — the same offsets added to one time.Now().
func subInstants(ts, tn, us, un int64, mode uint8) (t, u time.Time) {
	switch mode % 4 {
	case 1:
		z := time.FixedZone("fixed", int(tn%(14*3600)))
		return time.Unix(ts, tn).In(z), time.Unix(us, un).In(z)
	case 2:
		return time.Unix(ts, tn), time.Unix(us, un)
	case 3:
		now := time.Now()
		return now.Add(time.Duration(ts)), now.Add(time.Duration(us))
	}
	return time.Unix(ts, tn).UTC(), time.Unix(us, un).UTC()
}

// checkSub compares TimeSub, SameBootTime and the interval formulas with
// their time.Time.Sub originals on one pair of instants.
func checkSub(t *testing.T, a, b time.Time, idle, sent, recv uint64) {
	t.Helper()
	if got, want := TimeSub(b, a), b.Sub(a); got != want {
		t.Fatalf("TimeSub(%v, %v) = %d, Sub says %d", b, a, got, want)
	}
	if got, want := TimeSub(a, b), a.Sub(b); got != want {
		t.Fatalf("TimeSub(%v, %v) = %d, Sub says %d", a, b, got, want)
	}
	if got, want := SameBootTime(a, b), sameBootTimeSub(a, b); got != want {
		t.Fatalf("SameBootTime(%v, %v) = %v, Sub says %v", a, b, got, want)
	}
	sa := &Sample{Time: a, SentBytes: sent / 2, RecvBytes: recv}
	sb := &Sample{Time: b, CPUIdle: time.Duration(idle), SentBytes: sent, RecvBytes: recv / 2}
	iv := Interval{A: sa, B: sb}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"CPUIdlePct", iv.CPUIdlePct(), oracleCPUIdlePct(iv)},
		{"SentBps", iv.SentBps(), oracleCounterBps(sa.SentBytes, sb.SentBytes, oracleDuration(iv))},
		{"RecvBps", iv.RecvBps(), oracleCounterBps(sa.RecvBytes, sb.RecvBytes, oracleDuration(iv))},
	} {
		if math.Float64bits(c.got) != math.Float64bits(c.want) {
			t.Fatalf("%s over %v → %v = %v, was %v", c.name, a, b, c.got, c.want)
		}
	}
}

// TestTimeSubMatchesSub covers the edges: the 1 s boot tolerance, the
// 2³² s and ±2⁶² cut-overs, pre-1970 instants, overflow at both ends of
// time.Time's range, other locations and monotonic readings.
func TestTimeSubMatchesSub(t *testing.T) {
	epoch := time.Unix(0, 0).UTC()
	base := time.Date(2003, 10, 6, 12, 0, 0, 0, time.UTC)
	now := time.Now()
	for _, c := range [][2]time.Time{
		{base, base.Add(time.Second)},
		{base, base.Add(time.Second + 1)},
		{base, base.Add(-time.Second - 1)},
		{base, base.Add(15 * time.Minute)},
		{epoch.Add(-1), epoch},
		{time.Date(1901, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(2037, 1, 1, 0, 0, 0, 0, time.UTC)},
		{epoch, time.Unix(1<<32-1, 999999999).UTC()},
		{epoch, time.Unix(1<<32, 0).UTC()},
		{epoch, time.Unix(-1<<32, 0).UTC()},
		{time.Unix(-1<<33, 0).UTC(), time.Unix(1<<33, 0).UTC()}, // Sub saturates
		{time.Unix(1<<62-1, 0).UTC(), time.Unix(1<<62-2, 5).UTC()},
		{time.Unix(1<<62, 0).UTC(), time.Unix(1<<62+1, 0).UTC()},
		{time.Unix(-1<<62, 0).UTC(), time.Unix(-1<<62+1, 0).UTC()},
		{time.Unix(math.MaxInt64, 999999999).UTC(), time.Unix(math.MinInt64, 0).UTC()},
		// Internal seconds max−1 and min+1: 3 s apart modulo 2⁶⁴, so
		// without the ±2⁶² guard the wrapped difference would pass as
		// small.
		{time.Unix(math.MaxInt64-62135596801, 0).UTC(), time.Unix(math.MaxInt64-62135596798, 0).UTC()},
		{base, base.In(time.FixedZone("x", 3600)).Add(time.Second)},
		{base.Local(), base.Add(time.Second).Local()},
		{now, now.Add(time.Second)},
		{now, time.Now()}, // wall and monotonic differences disagree by a few ns
		{now, now.Add(time.Second).Round(0)},
		{now.Round(0), now.Add(-time.Hour)},
	} {
		checkSub(t, c[0], c[1], 900e9, 1<<40, 1<<33)
	}
}

// FuzzTimeSub: TimeSub, SameBootTime and the interval formulas equal
// their time.Time.Sub originals bit for bit.
func FuzzTimeSub(f *testing.F) {
	const boot = int64(1065398400) // 2003-10-06 00:00 UTC
	f.Add(boot, int64(0), boot+1, int64(0), uint8(0), uint64(0), uint64(0), uint64(0))
	f.Add(boot, int64(0), boot+1, int64(1), uint8(0), uint64(0), uint64(0), uint64(0))
	f.Add(boot, int64(0), boot+900, int64(0), uint8(0), uint64(810e9), uint64(1e6), uint64(9e6))
	f.Add(int64(-1), int64(999999999), int64(0), int64(0), uint8(0), uint64(1), uint64(2), uint64(3))
	f.Add(int64(0), int64(0), int64(1<<32), int64(0), uint8(0), uint64(0), uint64(0), uint64(0))
	f.Add(int64(math.MaxInt64), int64(0), int64(math.MinInt64), int64(0), uint8(0), uint64(0), uint64(0), uint64(0))
	f.Add(boot, int64(0), boot-3600, int64(0), uint8(1), uint64(0), uint64(0), uint64(0))
	f.Add(boot, int64(0), boot+1, int64(0), uint8(2), uint64(0), uint64(0), uint64(0))
	f.Add(int64(0), int64(0), int64(1e9), int64(0), uint8(3), uint64(5e8), uint64(0), uint64(0))
	f.Fuzz(func(t *testing.T, ts, tn, us, un int64, mode uint8, idle, sent, recv uint64) {
		a, b := subInstants(ts, tn, us, un, mode)
		checkSub(t, a, b, idle, sent, recv)
	})
}
