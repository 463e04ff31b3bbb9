package analysis

import (
	"slices"
	"testing"

	"winlab/internal/trace"
)

// TestIterIndexExtendMatchesBuild: an index extended chunk by chunk, as a
// resident engine grows it, gives every iteration number the position a
// one-shot build over the whole log gives it — dense logs with gaps,
// sparse ones, and logs that turn dense or sparse as they grow — and an
// out-of-order record is refused without touching the index.
func TestIterIndexExtendMatchesBuild(t *testing.T) {
	for _, log := range [][]int{
		{0, 1, 2, 3, 5, 6, 9, 10, 11, 12, 13, 14},
		{0, 1 << 40, 1<<40 + 1},
		{7, 1000, 1001, 1002},
		{0, 1000, 1001, 1002, 1003, 1004, 1005, 1006, 1007, 1008, 1009, 1010, 1011, 1012, 1013, 1014, 1015, 1016, 1017, 1018, 1019, 1020, 1021, 1022, 1023, 1024, 1025},
		{-3, -2, -2, 0, 4},
	} {
		var recs []trace.Iteration
		for _, it := range log {
			recs = append(recs, trace.Iteration{Iter: it})
		}
		want := newIterIndex(recs)
		for chunk := 1; chunk <= 3; chunk++ {
			var x iterIndex
			for i := 0; i < len(recs); i += chunk {
				if _, ok := x.extend(recs[i:min(i+chunk, len(recs))]); !ok {
					t.Fatalf("log %v chunk %d: an ascending log was refused", log, chunk)
				}
			}
			if !slices.Equal(x.keys, want.keys) {
				t.Fatalf("log %v chunk %d: keys %v, want %v", log, chunk, x.keys, want.keys)
			}
			for _, it := range append(slices.Clone(log), -1<<40, 8, 999, 1<<41) {
				if got, w := x.of(it), want.of(it); got != w {
					t.Fatalf("log %v chunk %d: of(%d) = %d, want %d", log, chunk, it, got, w)
				}
			}
			if len(x.pos) > 4*len(x.keys) {
				t.Fatalf("log %v chunk %d: dense table of %d for %d keys", log, chunk, len(x.pos), len(x.keys))
			}
		}
	}
	x := newIterIndex([]trace.Iteration{{Iter: 0}, {Iter: 2}})
	if added, ok := x.extend([]trace.Iteration{{Iter: 2}, {Iter: 0}}); !ok || added != 0 {
		t.Fatalf("re-logged iterations: added %d, ok %v; want 0, true", added, ok)
	}
	if _, ok := x.extend([]trace.Iteration{{Iter: 3}, {Iter: 1}}); ok || len(x.keys) != 2 {
		t.Fatalf("a record below the last key was accepted (keys %v)", x.keys)
	}
}
