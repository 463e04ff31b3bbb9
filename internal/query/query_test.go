package query

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"winlab/internal/analysis"
	"winlab/internal/anomaly"
	"winlab/internal/trace"
	"winlab/internal/trace/stream"
)

var t0 = time.Date(2003, 10, 6, 0, 0, 0, 0, time.UTC) // a Monday

// testDataset builds a small deterministic trace: machines m0..m(n-1) in
// two labs, iters iterations 15 minutes apart, machine k answering
// every iteration whose number is divisible by (k%3)+1, odd machines
// carrying a session.
func testDataset(n, iters int) *trace.Dataset {
	period := 15 * time.Minute
	d := &trace.Dataset{
		Start:  t0,
		End:    t0.Add(time.Duration(iters) * period),
		Period: period,
	}
	for k := 0; k < n; k++ {
		lab := "LabA"
		if k%2 == 1 {
			lab = "LabB"
		}
		d.Machines = append(d.Machines, trace.MachineInfo{
			ID: fmt.Sprintf("m%d", k), Lab: lab, RAMMB: 256, DiskGB: 40,
			IntIndex: 1, FPIndex: 1,
		})
	}
	for i := 0; i < iters; i++ {
		at := t0.Add(time.Duration(i) * period)
		it := trace.Iteration{Iter: i, Start: at, End: at.Add(time.Minute), Attempted: n}
		for k := 0; k < n; k++ {
			if i%((k%3)+1) != 0 {
				continue
			}
			boot := t0.Add(-time.Hour)
			s := trace.Sample{
				Iter: i, Time: at.Add(time.Duration(k) * time.Second),
				Machine: d.Machines[k].ID, Lab: d.Machines[k].Lab,
				BootTime: boot, Uptime: at.Sub(boot),
				CPUIdle:    time.Duration(float64(at.Sub(boot)) * 0.9),
				MemLoadPct: 40 + k, SwapLoadPct: 5,
				DiskGB: 40, FreeDiskGB: 30,
				PowerCycles: int64(10 + i/4), PowerOnHours: int64(100 + i),
				SentBytes: uint64(i) * 1000, RecvBytes: uint64(i) * 5000,
			}
			if k%2 == 1 {
				s.SessionUser = "student"
				s.SessionStart = boot
			}
			it.Responded++
			d.Samples = append(d.Samples, s)
		}
		d.Iterations = append(d.Iterations, it)
	}
	return d
}

func testHandler(t testing.TB, gate *Gate) (*Handler, *Store) {
	t.Helper()
	st := NewStore(analysis.Options{})
	st.Publish(testDataset(6, 3*96))
	h := NewHandler(Config{Store: st, Gate: gate})
	return h, st
}

var allPaths = []string{
	"/api/epoch", "/api/summary", "/api/availability", "/api/labs",
	"/api/machines", "/api/weekly", "/api/equivalence", "/api/uptimes",
	"/api/heatmap", "/api/events",
}

// TestEndpointsServeValidJSON hits every endpoint and checks status,
// content type, and that the body is parseable JSON with the right epoch.
func TestEndpointsServeValidJSON(t *testing.T) {
	h, _ := testHandler(t, nil)
	for _, path := range allPaths {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("%s: status %d", path, rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s: content type %q", path, ct)
		}
		var doc map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatalf("%s: invalid JSON: %v", path, err)
		}
		if path == "/api/events" {
			continue // no Meta block
		}
		var epoch any
		if path == "/api/epoch" {
			epoch = doc["epoch"]
		} else {
			meta, ok := doc["meta"].(map[string]any)
			if !ok {
				t.Fatalf("%s: missing meta block", path)
			}
			epoch = meta["epoch"]
		}
		if epoch != float64(1) {
			t.Fatalf("%s: epoch = %v, want 1", path, epoch)
		}
	}
}

func TestUnknownPathAndMethod(t *testing.T) {
	h, _ := testHandler(t, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/api/nope", nil))
	if rec.Code != 404 {
		t.Fatalf("unknown path: status %d, want 404", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/api/summary", nil))
	if rec.Code != 405 {
		t.Fatalf("POST: status %d, want 405", rec.Code)
	}
	if rec.Header().Get("Allow") != "GET, HEAD" {
		t.Fatalf("POST: Allow = %q", rec.Header().Get("Allow"))
	}
}

func TestNoSnapshotYet(t *testing.T) {
	h := NewHandler(Config{Store: NewStore(analysis.Options{})})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/api/summary", nil))
	if rec.Code != 503 {
		t.Fatalf("empty store: status %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") != "1" {
		t.Fatalf("empty store: Retry-After = %q", rec.Header().Get("Retry-After"))
	}
}

// TestETagAcrossEpochAdvance exercises the full validator lifecycle:
// a GET yields a strong ETag; If-None-Match with it yields 304 with no
// body; publishing a new dataset changes the ETag so the same
// If-None-Match yields 200 with a fresh body and validator.
func TestETagAcrossEpochAdvance(t *testing.T) {
	h, st := testHandler(t, nil)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/api/summary", nil))
	etag := rec.Header().Get("Etag")
	if rec.Code != 200 || etag == "" {
		t.Fatalf("first GET: status %d etag %q", rec.Code, etag)
	}
	if etag[0] != '"' || etag[len(etag)-1] != '"' {
		t.Fatalf("etag %q is not a quoted strong validator", etag)
	}

	req := httptest.NewRequest("GET", "/api/summary", nil)
	req.Header.Set("If-None-Match", etag)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 304 {
		t.Fatalf("revalidation: status %d, want 304", rec.Code)
	}
	if rec.Body.Len() != 0 {
		t.Fatalf("304 carried a %d-byte body", rec.Body.Len())
	}
	if got := rec.Header().Get("Etag"); got != etag {
		t.Fatalf("304 etag %q, want %q", got, etag)
	}

	// Epoch advance: different data → different fingerprint → new ETag.
	st.Publish(testDataset(6, 4*96))
	rec = httptest.NewRecorder()
	req = httptest.NewRequest("GET", "/api/summary", nil)
	req.Header.Set("If-None-Match", etag)
	h.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("after epoch advance: status %d, want 200", rec.Code)
	}
	etag2 := rec.Header().Get("Etag")
	if etag2 == etag {
		t.Fatalf("etag did not change across epoch advance: %q", etag)
	}
	req.Header.Set("If-None-Match", etag2)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 304 {
		t.Fatalf("revalidation at epoch 2: status %d, want 304", rec.Code)
	}
}

// TestSameDataSameFingerprint: two stores over identical datasets emit
// the same fingerprint (the cross-process validator property), and the
// ETag still differs only if the epoch differs.
func TestSameDataSameFingerprint(t *testing.T) {
	a := NewStore(analysis.Options{})
	b := NewStore(analysis.Options{})
	a.Publish(testDataset(4, 96))
	b.Publish(testDataset(4, 96))
	fa := a.Current().Aggregates().meta.Fingerprint
	fb := b.Current().Aggregates().meta.Fingerprint
	if fa != fb {
		t.Fatalf("fingerprints differ over identical data: %s vs %s", fa, fb)
	}
	b2 := NewStore(analysis.Options{})
	b2.Publish(testDataset(4, 97))
	if fb2 := b2.Current().Aggregates().meta.Fingerprint; fb2 == fa {
		t.Fatalf("fingerprint unchanged across different data: %s", fb2)
	}
}

func TestHeadRequest(t *testing.T) {
	h, _ := testHandler(t, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("HEAD", "/api/summary", nil))
	if rec.Code != 200 {
		t.Fatalf("HEAD: status %d", rec.Code)
	}
	if rec.Body.Len() != 0 {
		t.Fatalf("HEAD carried a body")
	}
	if rec.Header().Get("Etag") == "" {
		t.Fatalf("HEAD missing ETag")
	}
}

// TestStreamModeServesResultsWithoutDataset publishes pre-computed
// results (the AllStream path): every endpoint answers, the heatmap
// included — the engine computes it in the same pass as everything else.
func TestStreamModeServesResultsWithoutDataset(t *testing.T) {
	ds := testDataset(6, 96)
	res := analysis.All(ds, analysis.Options{})
	st := NewStore(analysis.Options{})
	st.PublishResults(res, Info{
		Start: ds.Start, End: ds.End, Period: ds.Period,
		Iterations: len(ds.Iterations), Samples: len(ds.Samples), Machines: len(ds.Machines),
	})
	h := NewHandler(Config{Store: st})
	for _, path := range allPaths {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("%s in stream mode: status %d, want 200", path, rec.Code)
		}
	}
}

// TestStreamModeMatchesDatasetMode: one trace published as a dataset and
// as AllStream results over its TBv1 encoding serves the same per-lab,
// per-machine, heatmap and uptime payloads; only the Meta block (whose
// fingerprint digests the dataset in one mode and the Info in the other)
// may differ.
func TestStreamModeMatchesDatasetMode(t *testing.T) {
	ds := testDataset(6, 96)
	ds.Freeze()
	var tb bytes.Buffer
	if err := trace.WriteBinary(&tb, ds); err != nil {
		t.Fatal(err)
	}
	c, err := stream.New(bytes.NewReader(tb.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.AllStream(c, analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}

	byDataset := NewStore(analysis.Options{})
	byDataset.Publish(ds)
	byResults := NewStore(analysis.Options{})
	byResults.PublishResults(res, Info{Start: c.Start(), End: c.End(), Period: c.Period()})

	payload := func(st *Store, path string) map[string]any {
		t.Helper()
		rec := httptest.NewRecorder()
		NewHandler(Config{Store: st}).ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("%s: status %d", path, rec.Code)
		}
		var body map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		delete(body, "meta")
		return body
	}
	for _, path := range []string{"/api/labs", "/api/machines", "/api/heatmap", "/api/uptimes"} {
		want, got := payload(byDataset, path), payload(byResults, path)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: stream-mode payload differs from dataset mode:\n dataset: %v\n  stream: %v", path, want, got)
		}
	}
}

// TestGateSheds saturates a 1-slot, 0-queue gate and checks the shed
// response; then releases and checks recovery.
func TestGateSheds(t *testing.T) {
	g := NewGate(1, 0, time.Millisecond)
	h, _ := testHandler(t, g)

	if !g.Acquire() { // occupy the only slot out-of-band
		t.Fatal("could not acquire the only slot")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/api/summary", nil))
	if rec.Code != 503 {
		t.Fatalf("saturated: status %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") != "1" {
		t.Fatalf("saturated: Retry-After = %q, want 1", rec.Header().Get("Retry-After"))
	}
	g.Release()
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/api/summary", nil))
	if rec.Code != 200 {
		t.Fatalf("after release: status %d, want 200", rec.Code)
	}
}

func TestGateQueueWaits(t *testing.T) {
	g := NewGate(1, 1, time.Second)
	if !g.Acquire() {
		t.Fatal("first acquire failed")
	}
	done := make(chan bool)
	go func() { done <- g.Acquire() }() // waits in the queue
	time.Sleep(10 * time.Millisecond)
	g.Release()
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("queued request was shed despite a slot freeing in time")
		}
	case <-time.After(time.Second):
		t.Fatal("queued request never admitted")
	}
	g.Release()
}

func TestEventsEndpoint(t *testing.T) {
	st := NewStore(analysis.Options{})
	st.Publish(testDataset(4, 96))
	ev := NewEventLog(8, st.Epoch)
	ring := anomaly.NewRing(16)
	detach := ev.Attach(ring)
	defer detach()

	ring.Add(anomaly.Event{Time: t0, Kind: "outage", Severity: "warn", Machine: "m1", Score: 2})
	st.Publish(testDataset(4, 97)) // epoch 2
	ring.Add(anomaly.Event{Time: t0.Add(time.Hour), Kind: "mass-outage", Severity: "crit", Score: 5})

	h := NewHandler(Config{Store: st, Events: ev})
	get := func(url string) map[string]any {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code != 200 {
			t.Fatalf("%s: status %d", url, rec.Code)
		}
		var doc map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatalf("%s: bad JSON: %v", url, err)
		}
		return doc
	}

	doc := get("/api/events")
	if n := len(doc["events"].([]any)); n != 2 {
		t.Fatalf("all events: %d, want 2", n)
	}
	if doc["total"] != float64(2) || doc["epoch"] != float64(2) {
		t.Fatalf("header: total=%v epoch=%v", doc["total"], doc["epoch"])
	}
	first := doc["events"].([]any)[0].(map[string]any)
	if first["epoch"] != float64(1) {
		t.Fatalf("first event epoch = %v, want 1", first["epoch"])
	}

	doc = get("/api/events?since=2")
	if n := len(doc["events"].([]any)); n != 1 {
		t.Fatalf("since epoch 2: %d events, want 1", n)
	}
	doc = get("/api/events?since=" + t0.Add(30*time.Minute).Format(time.RFC3339))
	if n := len(doc["events"].([]any)); n != 1 {
		t.Fatalf("since time: %d events, want 1", n)
	}
	doc = get("/api/events?max=1")
	evs := doc["events"].([]any)
	if len(evs) != 1 {
		t.Fatalf("max=1: %d events", len(evs))
	}
	if evs[0].(map[string]any)["epoch"] != float64(2) {
		t.Fatal("max=1 did not keep the most recent event")
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/api/events?since=garbage", nil))
	if rec.Code != 400 {
		t.Fatalf("bad since: status %d, want 400", rec.Code)
	}
}

func TestEventLogEviction(t *testing.T) {
	l := NewEventLog(3, nil)
	for i := 0; i < 5; i++ {
		l.Add(anomaly.Event{Time: t0.Add(time.Duration(i) * time.Minute), Kind: "k"})
	}
	if l.Len() != 3 {
		t.Fatalf("len = %d, want 3", l.Len())
	}
	recs, total := l.snapshot(0, time.Time{}, 0)
	if total != 5 {
		t.Fatalf("total = %d, want 5", total)
	}
	if len(recs) != 3 || !recs[0].Event.Time.Equal(t0.Add(2*time.Minute)) {
		t.Fatalf("retained wrong window: %+v", recs)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Event.Time.Before(recs[i-1].Event.Time) {
			t.Fatal("retained events out of arrival order")
		}
	}
}

// TestColdCostOncePerEpoch asserts the analysis pass runs once no matter
// how many concurrent first requests arrive.
func TestColdCostOncePerEpoch(t *testing.T) {
	st := NewStore(analysis.Options{})
	st.Publish(testDataset(6, 96))
	s := st.Current()
	const readers = 16
	aggs := make([]*aggregates, readers)
	done := make(chan int, readers)
	for i := 0; i < readers; i++ {
		go func(i int) {
			aggs[i] = s.Aggregates()
			done <- i
		}(i)
	}
	for i := 0; i < readers; i++ {
		<-done
	}
	for i := 1; i < readers; i++ {
		if aggs[i] != aggs[0] {
			t.Fatal("concurrent readers got different aggregate builds")
		}
	}
}

// fakeResponseWriter is the benchmark/alloc-test sink: header map
// allocated once, body discarded.
type fakeResponseWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *fakeResponseWriter) Header() http.Header { return w.h }
func (w *fakeResponseWriter) WriteHeader(c int)   { w.status = c }
func (w *fakeResponseWriter) Write(b []byte) (int, error) {
	w.n += len(b)
	return len(b), nil
}

// TestCacheHitZeroAllocs is the PR's headline micro-guarantee: after
// warmup, a cache-hit GET performs zero heap allocations end-to-end
// through the handler (the httptest recorder is replaced by a reusable
// writer, as a real server reuses its connection state).
func TestCacheHitZeroAllocs(t *testing.T) {
	h, _ := testHandler(t, NewGate(64, 64, time.Second))
	for _, path := range []string{"/api/epoch", "/api/summary", "/api/availability"} {
		req := httptest.NewRequest("GET", path, nil)
		w := &fakeResponseWriter{h: make(http.Header, 4)}
		h.ServeHTTP(w, req) // warm the cache
		if w.status == 404 || w.n == 0 {
			t.Fatalf("%s: warmup failed (status %d, %d bytes)", path, w.status, w.n)
		}
		allocs := testing.AllocsPerRun(100, func() {
			h.ServeHTTP(w, req)
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocs/op on cache hit, want 0", path, allocs)
		}
	}
}

func TestNotModifiedZeroAllocs(t *testing.T) {
	h, _ := testHandler(t, nil)
	req := httptest.NewRequest("GET", "/api/summary", nil)
	w := &fakeResponseWriter{h: make(http.Header, 4)}
	h.ServeHTTP(w, req)
	etag := w.h["Etag"][0]
	req.Header.Set("If-None-Match", etag)
	allocs := testing.AllocsPerRun(100, func() {
		h.ServeHTTP(w, req)
	})
	if allocs != 0 {
		t.Errorf("304 path: %.1f allocs/op, want 0", allocs)
	}
}

func BenchmarkCacheHit(b *testing.B) {
	h, _ := testHandler(b, NewGate(64, 64, time.Second))
	req := httptest.NewRequest("GET", "/api/summary", nil)
	w := &fakeResponseWriter{h: make(http.Header, 4)}
	h.ServeHTTP(w, req)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, req)
	}
}

func BenchmarkCacheHitParallel(b *testing.B) {
	h, _ := testHandler(b, NewGate(64, 64, time.Second))
	warm := httptest.NewRequest("GET", "/api/summary", nil)
	w0 := &fakeResponseWriter{h: make(http.Header, 4)}
	h.ServeHTTP(w0, warm)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		req := httptest.NewRequest("GET", "/api/summary", nil)
		w := &fakeResponseWriter{h: make(http.Header, 4)}
		for pb.Next() {
			h.ServeHTTP(w, req)
		}
	})
}
