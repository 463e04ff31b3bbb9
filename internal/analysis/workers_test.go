package analysis

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"winlab/internal/experiment"
	"winlab/internal/trace"
	"winlab/internal/trace/check"
)

// TestAllWorkerCountsAgree: every way of feeding the engine gives the
// same Results, float bits and accumulator state included — All's span
// fold on 1, 2, 3 and 8 goroutines, AllStream with 1, 2 and 4 workers,
// AllSegments over a three-shard collection's segment files, and Live
// fed the samples in commit order (iteration-major).
func TestAllWorkerCountsAgree(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		cfg := experiment.Default(seed)
		cfg.Days = 3
		cfg.Shards = 3
		res, err := experiment.Run(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		d := res.Dataset
		want := All(d, Options{})
		if want.Dropped != 0 {
			t.Errorf("seed %d: %d observations dropped", seed, want.Dropped)
		}
		agree := func(feed string, got *Results) {
			t.Helper()
			if diff := check.FirstDiff(want, got); diff != "" {
				t.Errorf("seed %d: %s diverges from All: %s", seed, feed, diff)
			}
		}

		for _, n := range []int{1, 2, 3, 8} {
			agree(fmt.Sprintf("All on %d goroutines", n), foldSpans(d, d.Index(), Options{}.withDefaults(), n))
		}

		tb := encodeTB(t, d)
		for _, w := range []int{1, 2, 4} {
			agree(fmt.Sprintf("AllStream with %d workers", w), allStreamOver(t, tb, Options{Workers: w}, 0))
		}

		dir := t.TempDir()
		mpath, err := trace.WriteSegments(dir, "run", res.ShardDatasets)
		if err != nil {
			t.Fatalf("seed %d: WriteSegments: %v", seed, err)
		}
		m, err := trace.ReadManifest(mpath)
		if err != nil {
			t.Fatalf("seed %d: ReadManifest: %v", seed, err)
		}
		seg, err := AllSegments(m.SegmentPaths(dir), Options{})
		if err != nil {
			t.Fatalf("seed %d: AllSegments: %v", seed, err)
		}
		agree("AllSegments", seg)

		commit := slices.Clone(d.Samples)
		slices.SortStableFunc(commit, func(a, b trace.Sample) int { return cmp.Compare(a.Iter, b.Iter) })
		live := NewLive(d.Start, d.End, d.Period, d.Machines, Options{})
		if !live.Add(d.Iterations, commit) {
			t.Fatalf("seed %d: Live refused the commit-ordered trace", seed)
		}
		agree("Live in commit order", live.Results())
	}
}
