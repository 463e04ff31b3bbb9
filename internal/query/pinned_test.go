package query

import (
	"crypto/sha256"
	"fmt"
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"winlab/internal/analysis"
	"winlab/internal/anomaly"
	"winlab/internal/experiment"
	"winlab/internal/telemetry"
)

// pinnedEvents fill /api/events (a 3-day run detects nothing) with
// strings and floats that cross encoding/json's escaping and notation
// boundaries.
var pinnedEvents = []anomaly.Event{
	{
		Time: time.Date(2003, 11, 2, 14, 0, 0, 0, time.UTC), Kind: "mass-outage", Severity: "crit",
		Lab: "Lab <A> & \"B\"", FirstIter: 100, LastIter: 104, Score: 7.25,
		Detail: "ctrl \x00\x01\x1f tab\tnewline\ncr\r invalid \xff\xfe utf8 mixed\x7f",
	},
	{
		Time: time.Date(2003, 11, 3, 9, 15, 0, 5000, time.FixedZone("WET", 3600)), Kind: "flapping",
		Severity: "warn", Machine: "sótão héllo 世界 ✓", FirstIter: 200, LastIter: 230, Score: 2.5e-7,
		Detail: "line seps \u2028 \u2029 quote \" backslash \\",
	},
	{Kind: "drift", Score: 1e21},
	{Kind: "drift", Score: 123456789012345678901.0},
	{Kind: "drift", Score: 9.999e-7},
	{Kind: "drift", Score: -0.0001},
}

// TestAPIBytesPinned holds every /api/* body and ETag of a seed-1,
// 3-day run to SHA-256 digests, published both as a dataset and as
// precomputed results (the -stream path). The digests were recorded
// from the hand-rolled append encoders that predate encoding/json here,
// so they pin the wire format across encoders: a changed field order,
// escaping rule or float notation fails this test. The summary, labs,
// weekly and equivalence digests were re-recorded once, when the
// engine's accumulators became exact (their means moved by at most
// 3e-8; CHANGES.md lists the old digests).
func TestAPIBytesPinned(t *testing.T) {
	cfg := experiment.Default(1)
	cfg.Days = 3
	run, err := experiment.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := run.Dataset

	byDataset := NewStore(analysis.Options{})
	byDataset.Publish(ds)
	byResults := NewStore(analysis.Options{})
	byResults.PublishResults(analysis.All(ds, analysis.Options{}), Info{
		Start: ds.Start, End: ds.End, Period: ds.Period,
		Iterations: len(ds.Iterations), Samples: len(ds.Samples), Machines: len(ds.Machines),
	})

	pinned := map[string]map[string]string{
		"dataset": {
			"/api/epoch":        "c718852ed00bb7891864882007b7d9053b258de977ff729a7b3bc2ff2b700c37",
			"/api/summary":      "2b031ebe9ce27707fec1ed0944244f2ee42ea0782b797cad4f8974582bad77a2",
			"/api/availability": "75e2fdc9338809c7f85ee55ae05d69bf97312c4db03146505799ada0021d5610",
			"/api/labs":         "b23e754aab58ae9528761288d933a14adf6c3966498b2b366e8230373c629849",
			"/api/machines":     "808d27cd2f960d1ecda9f74c1d99ca84f6903e61b1365d761bd40346ce4cefe4",
			"/api/weekly":       "2f6fb73edb492cc5c52f876d247acb5710a750e0786fc41226b5b09d182d95ed",
			"/api/equivalence":  "956290a69dbb5d6c26d2ceaad7e205593b49d7b053fc7e7daf2fcb16bb921a87",
			"/api/uptimes":      "289427f0efcccfc8e79b2c6dff5660e5bc149b3dc193f7a03102e3f4718ea3de",
			"/api/heatmap":      "da0c7bcfbc923c9fa927722b970f5462b6afd7161dd3720b787a551fdbd9db51",
			"/api/events":       "1fff0eccd0b53d446e4b63a46f169974b14edd7d49631588c8b92268d2e12aca",
			"etag":              `"1-9dc46ad07eeb1530"`,
		},
		"results": {
			"/api/epoch":        "3b5a542e91c3ce80fd9201a1f93867cc46422aa54a85505aa07acf1845b9e6f7",
			"/api/summary":      "ee540564e275790887a240418d88884aad8e0d7eaf83a67e248018d09945cc25",
			"/api/availability": "ef02d7f3e15d973a9b8e914ee09e56f3f8c9bef72b48c93812bbc3e3f0ae5a92",
			"/api/labs":         "54f6ebe886f7e041c58b33f443af17b0758b0aaae430badc06f4f32cdab018ff",
			"/api/machines":     "b3cbbd16bbe002ffac0dd92ecb09204b7c0fe502af78439ff4507b23cf976d33",
			"/api/weekly":       "c4f83b8c1a951b50697699620e3817c02653fa6edb13537a0fba9f148cb5b1a2",
			"/api/equivalence":  "e3437b480347431271079e3d8ae3123e1722428f2b515802b04368dd7d1f9a53",
			"/api/uptimes":      "038835fb0dc27ca1bbb9fcd172a5e18c6660e440a16388c26da941b253d93ee1",
			"/api/heatmap":      "0802149d3e4016db4731e606becedc8d35a93032682db2a7d31d31319091fa9f",
			"/api/events":       "1fff0eccd0b53d446e4b63a46f169974b14edd7d49631588c8b92268d2e12aca",
			"etag":              `"1-69637260491d7568"`,
		},
	}
	for _, mode := range []struct {
		name string
		st   *Store
	}{{"dataset", byDataset}, {"results", byResults}} {
		log := NewEventLog(0, mode.st.Epoch)
		log.Load(pinnedEvents, 1)
		h := NewHandler(Config{Store: mode.st, Events: log})
		for _, path := range allPaths {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
			if rec.Code != 200 {
				t.Fatalf("%s %s: status %d", mode.name, path, rec.Code)
			}
			got := fmt.Sprintf("%x", sha256.Sum256(rec.Body.Bytes()))
			if want := pinned[mode.name][path]; got != want {
				t.Errorf("%s %s: body SHA-256 = %s, pinned %s", mode.name, path, got, want)
			}
		}
		if got, want := mode.st.Current().Aggregates().etag, pinned[mode.name]["etag"]; got != want {
			t.Errorf("%s: ETag = %s, pinned %s", mode.name, got, want)
		}
	}
}

// TestNonFiniteAnswers500: encoding/json refuses NaN, so results that
// carry one get a 500 from every endpoint serving the value, twice in a
// row (nothing was cached), each counted in query_errors_total — never
// a body with the NaN written as some number. The endpoints that do not
// serve it answer as usual. An event with a NaN score fails
// /api/events the same way.
func TestNonFiniteAnswers500(t *testing.T) {
	ds := testDataset(6, 96)
	res := *analysis.All(ds, analysis.Options{})
	res.Equivalence.OccupiedRatio = math.NaN()
	st := NewStore(analysis.Options{})
	st.PublishResults(&res, Info{Start: ds.Start, End: ds.End, Period: ds.Period})
	log := NewEventLog(0, st.Epoch)
	log.Add(anomaly.Event{Kind: "drift", Score: math.Inf(1)})
	reg := telemetry.NewRegistry()
	h := NewHandler(Config{Store: st, Events: log, Reg: reg})

	failing := map[string]bool{"/api/summary": true, "/api/equivalence": true, "/api/events": true}
	var want int64
	for pass := 0; pass < 2; pass++ {
		for _, path := range allPaths {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
			if failing[path] {
				want++
				if rec.Code != 500 {
					t.Errorf("pass %d %s: status %d with body %.80q, want 500", pass, path, rec.Code, rec.Body.Bytes())
				}
			} else if rec.Code != 200 {
				t.Errorf("pass %d %s: status %d, want 200", pass, path, rec.Code)
			}
		}
	}
	s := st.Current()
	for _, ep := range []int{epSummary, epEquivalence} {
		if s.cache[ep].Load() != nil {
			t.Errorf("endpoint %d: a body was cached for a failed encode", ep)
		}
	}
	if got := reg.Counter("query_errors_total").Value(); got != want {
		t.Errorf("query_errors_total = %d, want %d", got, want)
	}
}
