package query

import (
	"io"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"winlab/internal/analysis"
	"winlab/internal/core"
	"winlab/internal/experiment"
	"winlab/internal/trace"
	"winlab/internal/trace/check"
)

// servedResults publishes ds to a fresh default-options Store, makes the
// first GET, and returns the Results the snapshot serves.
func servedResults(t *testing.T, ds *trace.Dataset) *analysis.Results {
	t.Helper()
	st := NewStore(analysis.Options{})
	st.Publish(ds)
	rec := httptest.NewRecorder()
	NewHandler(Config{Store: st}).ServeHTTP(rec, httptest.NewRequest("GET", "/api/summary", nil))
	if rec.Code != 200 {
		t.Fatalf("first GET: status %d", rec.Code)
	}
	return st.Current().Aggregates().res
}

// TestPublishServesRecordedPass: a dataset analysed before it is
// published — analysis.All (reanalysis, labmon) or MainResults at the
// default threshold (ddcd) — is served from that one engine pass.
func TestPublishServesRecordedPass(t *testing.T) {
	ds := testDataset(6, 3*96)
	res := analysis.All(ds, analysis.Options{})
	if got := servedResults(t, ds); got != res {
		t.Fatal("All → Publish → GET ran a second engine pass")
	}
	if analysis.Recorded(ds.Index(), analysis.Options{}) != res {
		t.Fatal("the cold build replaced the recorded pass")
	}

	ds = testDataset(6, 3*96)
	analysis.MainResults(ds, analysis.DefaultForgottenThreshold)
	want := analysis.Recorded(ds.Index(), analysis.Options{})
	if want == nil {
		t.Fatal("MainResults recorded no pass")
	}
	if got := servedResults(t, ds); got != want {
		t.Fatal("MainResults → Publish → GET ran a second engine pass")
	}
}

// TestPublishRecomputesWithoutMatchingPass: a pass recorded before an
// invalidation, a structural change or under other options is not
// served; the cold build runs the engine, and its answer is the fresh
// analysis of the dataset as published.
func TestPublishRecomputesWithoutMatchingPass(t *testing.T) {
	for _, c := range []struct {
		name    string
		analyse func(ds *trace.Dataset) *analysis.Results
		edit    func(ds *trace.Dataset)
	}{
		{"InvalidateIndex", func(ds *trace.Dataset) *analysis.Results { return analysis.All(ds, analysis.Options{}) },
			func(ds *trace.Dataset) { ds.InvalidateIndex() }},
		{"appended sample", func(ds *trace.Dataset) *analysis.Results { return analysis.All(ds, analysis.Options{}) },
			func(ds *trace.Dataset) {
				s := ds.Samples[len(ds.Samples)-1]
				s.Iter++
				s.Time = s.Time.Add(15 * time.Minute)
				ds.Samples = append(ds.Samples, s)
			}},
		{"other options", func(ds *trace.Dataset) *analysis.Results {
			return analysis.All(ds, analysis.Options{HistBins: 12})
		}, nil},
		// The zero-threshold pass cannot be named through Options; the
		// fresh-pass comparison below is what catches it being served.
		{"MainResults(ds, 0)", func(ds *trace.Dataset) *analysis.Results {
			analysis.MainResults(ds, 0)
			return nil
		}, nil},
	} {
		ds := testDataset(6, 3*96)
		old := c.analyse(ds)
		if c.edit != nil {
			c.edit(ds)
		}
		ref := ds.ClonePrefix()
		got := servedResults(t, ds)
		if got == old {
			t.Errorf("%s: the stale or mismatched pass was served", c.name)
			continue
		}
		if d := check.FirstDiff(got, analysis.All(ref, analysis.Options{})); d != "" {
			t.Errorf("%s: served results differ from a fresh pass: %s", c.name, d)
		}
	}
}

// TestSharedResultsStayIntact runs labmon's path — core.AnalyzeResult,
// then Publish of the same dataset — and uses the one shared Results
// every way the binaries do at once: all nine snapshot endpoints from
// several goroutines while the report renders and its CSVs are written.
// Afterwards the shared Results must still equal a fresh pass over a
// copy of the trace, bit for bit: no consumer writes through them.
func TestSharedResultsStayIntact(t *testing.T) {
	cfg := experiment.Default(5)
	cfg.Days = 3
	res, err := experiment.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := res.Dataset.ClonePrefix()
	rep := core.AnalyzeResult(res)
	shared := analysis.Recorded(res.Dataset.Index(), analysis.Options{})
	if shared == nil {
		t.Fatal("core.AnalyzeResult recorded no pass")
	}

	st := NewStore(analysis.Options{})
	st.Publish(res.Dataset)
	h := NewHandler(Config{Store: st})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, path := range allPaths[:numEndpoints] {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
				if rec.Code != 200 {
					t.Errorf("%s: status %d", path, rec.Code)
				}
			}
		}()
	}
	rep.Render(io.Discard)
	if err := rep.WriteCSVs(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	if st.Current().Aggregates().res != shared {
		t.Fatal("Publish did not serve the recorded pass")
	}
	if d := check.FirstDiff(shared, analysis.All(ref, analysis.Options{})); d != "" {
		t.Fatalf("the shared Results were modified: %s", d)
	}
}
