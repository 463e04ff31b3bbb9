package analysis

import (
	"fmt"
	"sync"

	"winlab/internal/trace"
	"winlab/internal/trace/stream"
)

// AllSegments computes the same Results as AllStream directly from the
// unmerged TBv1 segment files of a sharded collection run — no
// compaction pass, no materialised dataset: each segment is drained by
// its own goroutine into its own instance of the analysis engine, and
// the per-segment engines fold together with the same merge AllStream's
// Workers > 1 path uses. Peak memory is K cursors
// plus K accumulator states, independent of trace length.
//
// The segments must come from one run: equal periods, one shared
// iteration clock (same-numbered iterations agree on their start), and
// each machine's samples wholly inside one segment — a machine with
// samples in two segments is rejected with a pointer to the compactor,
// because its intervals and sessions would be silently split.
//
// Equivalence contract (asserted by internal/validate's shard arms):
// every count, histogram and integer artefact matches AllStream over the
// compacted trace exactly; Welford-merged means and variances may differ
// in the last bits when K > 1, same epsilon as AllStream's parallel
// path. The normalisation catalogue (Equivalence's totalPerf) is the
// union catalogue, so per-segment accumulators normalise exactly like a
// fleet-wide pass would.
func AllSegments(paths []string, opts Options) (*Results, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("analysis: no segments")
	}
	opts = opts.withDefaults()

	cursors := make([]*stream.Cursor, len(paths))
	defer func() {
		for _, c := range cursors {
			if c != nil {
				c.Close()
			}
		}
	}()
	for i, path := range paths {
		c, err := stream.Open(path)
		if err != nil {
			return nil, fmt.Errorf("analysis: segment %s: %w", path, err)
		}
		cursors[i] = c
	}

	// Reconcile the headers into the run-wide view every accumulator
	// shares: union bounds, one period, union catalogue (duplicates must
	// agree — time-chunked shards re-catalogue), merged iteration log.
	start, end := cursors[0].Start(), cursors[0].End()
	period := cursors[0].Period()
	var machines []trace.MachineInfo
	catalogued := map[string]trace.MachineInfo{}
	logs := make([][]trace.Iteration, len(cursors))
	for i, c := range cursors {
		if c.Period() != period {
			return nil, fmt.Errorf("analysis: segment %s has period %v, want %v", paths[i], c.Period(), period)
		}
		if c.Start().Before(start) {
			start = c.Start()
		}
		if c.End().After(end) {
			end = c.End()
		}
		for _, mi := range c.Machines() {
			if prev, ok := catalogued[mi.ID]; ok {
				if prev != mi {
					return nil, fmt.Errorf("analysis: segment %s catalogues machine %s with conflicting metadata", paths[i], mi.ID)
				}
				continue
			}
			catalogued[mi.ID] = mi
			machines = append(machines, mi)
		}
		logs[i] = c.Iterations()
	}
	iterations, err := trace.MergeIterationLogs(logs)
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}

	// Drain every segment concurrently, one accumulator each — all built
	// against the union catalogue and run-wide bounds, so normalisation
	// and interval pairing behave exactly as in a fleet-wide pass.
	accs := make([]*streamAcc, len(cursors))
	errs := make([]error, len(cursors))
	var wg sync.WaitGroup
	for i, c := range cursors {
		accs[i] = newStreamAcc(start, end, period, machines, iterations, opts)
		wg.Add(1)
		go func(i int, c *stream.Cursor) {
			defer wg.Done()
			var run stream.Run
			for {
				ok, err := c.NextRun(&run)
				if err != nil {
					errs[i] = fmt.Errorf("analysis: segment %s: %w", paths[i], err)
					return
				}
				if !ok {
					return
				}
				if err := accs[i].addRun(run.Machine, run.Samples); err != nil {
					errs[i] = fmt.Errorf("analysis: segment %s: %w", paths[i], err)
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Each machine's timeline must live in exactly one segment, or its
	// interval pairing and session detection were silently split.
	segOf := map[string]int{}
	for i, acc := range accs {
		for id := range acc.mach {
			if prev, ok := segOf[id]; ok {
				return nil, fmt.Errorf("analysis: machine %s has samples in segments %s and %s; segments must partition machines (compact with trace.MergeSegments, or traceconv -merge)",
					id, paths[prev], paths[i])
			}
			segOf[id] = i
		}
	}

	return fold(accs).finalize(machines, iterations), nil
}

// AllManifest is AllSegments over a segment manifest: the segment paths
// resolve against dir (use filepath.Dir of the manifest's own path).
func AllManifest(m *trace.Manifest, dir string, opts Options) (*Results, error) {
	return AllSegments(m.SegmentPaths(dir), opts)
}
