package query

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The query service's two load promises, driven in-process against the
// handler with a discarding writer: the cache-hit path sustains the
// paper-scale target of 10⁵ req/s, and under overload the admission gate
// sheds excess requests (503) instead of queueing them into the tail of
// the ones it serves. Both are wall-clock measurements, so both skip
// under the race detector.

const (
	// throughputFloor is the target for cached aggregates. A 1-core
	// runner clears it with >10× headroom, so a failure means the
	// cache-hit path regressed, not that the runner was slow.
	throughputFloor = 1e5

	// loadPhase is how long each measured phase drives the handler.
	loadPhase = time.Second

	// satQueueTimeout is the overload gate's queue deadline. Collapse
	// means served tails growing toward this scale (requests riding the
	// queue).
	satQueueTimeout = 5 * time.Millisecond

	// latencySampleEvery bounds latency memory: every request is
	// counted, one in this many has its latency kept.
	latencySampleEvery = 8
)

// loadResult is one closed-loop phase: request counts by outcome and a
// sample of the latencies of served (200) responses.
type loadResult struct {
	requests, shed, errs int64
	served               []time.Duration
}

func (r loadResult) servedP99() time.Duration {
	if len(r.served) == 0 {
		return 0
	}
	slices.Sort(r.served)
	return r.served[(len(r.served)-1)*99/100]
}

// driveClosedLoop runs workers goroutines that GET path back to back
// for loadPhase, each with its own request and reusable writer, and
// merges their counts. It returns the phase's wall time alongside.
func driveClosedLoop(h http.Handler, path string, workers int) (loadResult, time.Duration) {
	var stop atomic.Bool
	parts := make([]loadResult, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range parts {
		wg.Add(1)
		go func(r *loadResult) {
			defer wg.Done()
			req := httptest.NewRequest("GET", path, nil)
			w := &fakeResponseWriter{h: make(http.Header, 4)}
			for !stop.Load() {
				w.status = 0
				t := time.Now()
				h.ServeHTTP(w, req)
				el := time.Since(t)
				r.requests++
				switch w.status {
				case 0, http.StatusOK:
					if r.requests%latencySampleEvery == 0 {
						r.served = append(r.served, el)
					}
				case http.StatusServiceUnavailable:
					r.shed++
				default:
					r.errs++
				}
			}
		}(&parts[i])
	}
	time.Sleep(loadPhase)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	var sum loadResult
	for _, p := range parts {
		sum.requests += p.requests
		sum.shed += p.shed
		sum.errs += p.errs
		sum.served = append(sum.served, p.served...)
	}
	return sum, elapsed
}

// loadStore publishes the test dataset and encodes every snapshot
// endpoint once, so measurement starts on the cache-hit path (the cold
// build is a per-epoch cost, not a per-request one).
func loadStore(t *testing.T) *Store {
	t.Helper()
	if raceEnabled {
		t.Skip("wall-clock load test: the race detector inflates latency")
	}
	h, st := testHandler(t, nil)
	for _, path := range allPaths[:numEndpoints] {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("warm %s: status %d", path, rec.Code)
		}
	}
	return st
}

// TestCacheHitThroughputFloor drives four cached endpoints closed-loop
// with 2×GOMAXPROCS workers and fails unless the best reaches the floor.
func TestCacheHitThroughputFloor(t *testing.T) {
	h := NewHandler(Config{Store: loadStore(t)})
	workers := 2 * runtime.GOMAXPROCS(0)
	var best float64
	for _, path := range []string{"/api/epoch", "/api/summary", "/api/availability", "/api/heatmap"} {
		r, elapsed := driveClosedLoop(h, path, workers)
		rps := float64(r.requests) / elapsed.Seconds()
		t.Logf("%-18s %10.0f req/s  served p99 %v  (%d requests, %d workers)",
			path, rps, r.servedP99(), r.requests, workers)
		if r.shed+r.errs > 0 {
			t.Errorf("%s: %d shed and %d failed requests on an ungated handler", path, r.shed, r.errs)
		}
		best = max(best, rps)
	}
	if best < throughputFloor {
		t.Fatalf("best cache-hit throughput %.0f req/s, below the floor of %.0f", best, throughputFloor)
	}
}

// TestShedHoldsServedTail is the shedding guarantee. A gate of 2p
// execution slots and 4p queue slots (p = GOMAXPROCS) serves p workers,
// then 16p; under the overload the gate must shed, and the p99 of the
// served responses must stay within 2× the baseline p99. The band has
// an absolute floor of 1/20 of the queue deadline: on a sub-µs
// baseline 2× is narrower than one scheduler wakeup, and the failure
// guarded against is deadline-scale queueing. The tail rule alone
// passes with no gate at all (nothing queues), so shed > 0 is what
// proves the gate refuses load rather than absorbing it.
func TestShedHoldsServedTail(t *testing.T) {
	st := loadStore(t)
	p := runtime.GOMAXPROCS(0)
	phase := func(workers int) loadResult {
		h := NewHandler(Config{Store: st, Gate: NewGate(2*p, 4*p, satQueueTimeout)})
		r, _ := driveClosedLoop(h, "/api/summary", workers)
		if r.errs > 0 {
			t.Errorf("%d workers: %d failed requests", workers, r.errs)
		}
		return r
	}
	base, over := phase(p), phase(16*p)
	baseP99, overP99 := base.servedP99(), over.servedP99()
	band := max(2*baseP99, satQueueTimeout/20)
	t.Logf("served p99: baseline %v (%d workers), overload %v (%d workers), band %v; %d of %d overload requests shed (%.0f%%)",
		baseP99, p, overP99, 16*p, band, over.shed, over.requests, 100*float64(over.shed)/float64(over.requests))
	if over.shed == 0 {
		t.Errorf("16× overload shed nothing: the gate queued or admitted all %d requests", over.requests)
	}
	if overP99 > band {
		t.Errorf("served p99 under overload %v exceeds the band %v (baseline %v)", overP99, band, baseP99)
	}
}
