package stream

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Parallel drains the cursor, invoking fn once per run across workers
// goroutines. The partition is deterministic: each machine is assigned
// to a worker round-robin in first-appearance order, and a worker
// receives its runs in stream order — so for a given trace the set of
// runs each worker index sees (and the order it sees them in) is fixed,
// which is what lets sharded accumulators merge reproducibly.
//
// Run buffers are pooled: fn must not retain run or run.Samples after
// returning. fn runs serially within one worker but concurrently across
// workers; it must not share unsynchronised state between worker
// indexes. workers ≤ 1 means one worker: the cursor decodes on the
// calling goroutine while that worker folds, at most two runs behind.
//
// Parallel requires the stream to be machine-contiguous (the canonical
// order of a TBv1 trace written from a frozen Dataset): once runs for a
// machine have ended, that machine must not reappear. Sharding an
// interleaved stream would silently hide the interleaving from each
// worker, so the producer detects reappearance and aborts with an
// error instead.
//
// The first error — the cursor's decode error, the contiguity check,
// or fn's — aborts the drain and is returned; when several workers
// fail the lowest worker index wins, deterministically.
func Parallel(c *Cursor, workers int, fn func(worker int, run *Run) error) error {
	workers = max(workers, 1)
	pool := sync.Pool{New: func() any { return new(Run) }}
	chans := make([]chan *Run, workers)
	errs := make([]error, workers)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := range chans {
		chans[w] = make(chan *Run, 2)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for run := range chans[w] {
				// After any failure, keep draining (so the producer never
				// blocks) but stop doing work.
				if errs[w] == nil && !failed.Load() {
					if err := fn(w, run); err != nil {
						errs[w] = err
						failed.Store(true)
					}
				}
				run.Samples = run.Samples[:0]
				pool.Put(run)
			}
		}(w)
	}

	assign := make(map[string]int)
	var decodeErr error
	last := ""
	for !failed.Load() {
		run := pool.Get().(*Run)
		ok, err := c.NextRun(run)
		if err != nil {
			decodeErr = err
			break
		}
		if !ok {
			break
		}
		w, seen := assign[run.Machine]
		if !seen {
			w = len(assign) % workers
			assign[run.Machine] = w
		} else if run.Machine != last {
			decodeErr = fmt.Errorf("stream: not machine-contiguous: %q reappears after other machines; re-encode the trace from a frozen dataset", run.Machine)
			break
		}
		last = run.Machine
		chans[w] <- run
	}
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()
	if decodeErr != nil {
		return decodeErr
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
