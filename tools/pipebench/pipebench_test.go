package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestSmoke runs all four workloads traced at toy shapes, in process, and
// holds what they emit against what BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	var decl benchDecl
	if err := readJSON("../../BENCHMARK.json", &decl); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if n := len(decl.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads declared, want 2..8", n)
	}
	if n := len(decl.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics declared, want 1..16", n)
	}
	if n := len(decl.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics declared, want 1..128", n)
	}
	if len(decl.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads, pipebench has %d", len(decl.Workloads), len(workloadNames))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: declared %q, pipebench runs %q", i, w.Name, workloadNames[i])
		}
	}
	declared := map[string]string{} // name → unit
	for _, d := range decl.EndToEnd {
		declared["e2e "+d.Name] = d.Unit
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range decl.PerLayer {
		declared["layer "+d.Name] = d.Unit
	}

	r := &runner{spawn: runPhase, toy: true, scratch: t.TempDir()}
	for _, w := range workloadNames {
		run, err := r.runWorkload(w, 1, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		if !run.correct() || run.Attempted < 1 {
			t.Errorf("%s: failed_share must be 0: %d failed of %d, failed checks %v", w, run.Failed, run.Attempted, run.Checks.Failed)
		}
		emitted := map[string]string{}
		for _, d := range endToEndDefs {
			emitted["e2e "+d.Name] = d.Unit
			if v := run.EndToEnd[d.Name]; !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %g, want > 0", w, d.Name, v)
			}
		}
		for _, d := range perLayerDefs {
			emitted["layer "+d.Name] = d.Unit
			if v, ok := run.PerLayer[d.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: per-layer metric %s = %g (present %v)", w, d.Name, v, ok)
			}
		}
		for k, unit := range emitted {
			if !name.MatchString(strings.SplitN(k, " ", 2)[1]) {
				t.Errorf("metric name %q does not match %v", k, name)
			}
			if declared[k] != unit {
				t.Errorf("%s emitted with unit %q, BENCHMARK.json declares %q", k, unit, declared[k])
			}
		}
		for k := range declared {
			if _, ok := emitted[k]; !ok {
				t.Errorf("%s declared in BENCHMARK.json, not emitted", k)
			}
		}
		checkSpans(t, w, run.spans)
		if w == "grid_shards" || w == "reanalyze" {
			for _, row := range run.Stages {
				if w == "grid_shards" && (strings.HasPrefix(row.Stage, "analysis.") || strings.HasPrefix(row.Stage, "behavior.")) ||
					row.Stage == "experiment.run" {
					t.Errorf("%s must not enter stage %s", w, row.Stage)
				}
			}
		}
		if run.Checks.TBFNV64 == "" && w != "live_publish" {
			t.Errorf("%s: no TBv1 digest in the checks block", w)
		}
	}
}

// checkSpans asserts every span has a parent whose interval contains it
// (roots have parent 0) and that self times add up to the rounds' wall.
func checkSpans(t *testing.T, workload string, spans []Span) {
	t.Helper()
	if len(spans) == 0 {
		t.Errorf("%s: traced run recorded no spans", workload)
	}
	byID := map[int]Span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.EndNS < s.StartNS {
			t.Errorf("%s: span %d %s ends before it starts", workload, s.ID, s.Name)
		}
		if s.Parent == 0 {
			if s.Name != rootSpan {
				t.Errorf("%s: span %d %s has no parent", workload, s.ID, s.Name)
			}
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || p.StartNS > s.StartNS || p.EndNS < s.EndNS || p.Round != s.Round {
			t.Errorf("%s: span %d %s [%d,%d] is not inside its parent %d [%d,%d]",
				workload, s.ID, s.Name, s.StartNS, s.EndNS, s.Parent, p.StartNS, p.EndNS)
		}
	}
	var self, wall float64
	for _, row := range stageTable(spans) {
		if row.Stage == rootSpan {
			wall = row.WallS
			continue
		}
		self += row.SelfS
	}
	// grid_shards writes segments on two shard goroutines at once, so its
	// self times may add up to more than the wall; never to less.
	over := self > 1.05*wall && workload != "grid_shards"
	if wall <= 0 || self < 0.95*wall || over {
		t.Errorf("%s: stage self times sum to %.4fs, rounds took %.4fs (want within 5%%)", workload, self, wall)
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0, 1}, {1, 10}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %g", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g, want 2.75, 8.25", q1, q3)
	}
	if got := spread(xs); got != 1 {
		t.Errorf("spread = %g, want 1", got)
	}
}

func TestSelfTimeIsSpanMinusUnionOfChildren(t *testing.T) {
	parent := Span{ID: 1, StartNS: 0, EndNS: 100}
	kids := []Span{{StartNS: 10, EndNS: 40}, {StartNS: 30, EndNS: 60}, {StartNS: 90, EndNS: 120}}
	if got := selfNS(parent, kids); got != 40 { // covered: [10,60] and [90,100]
		t.Errorf("self = %d, want 40", got)
	}
}

func TestVerdict(t *testing.T) {
	s := func(vs ...float64) *Series { return newSeries("s", vs) }
	steady := s(10, 10.1, 9.9, 10, 10.05)
	for _, c := range []struct {
		name     string
		old, cur *Series
		lower    bool
		want     string
	}{
		{"same", steady, s(10.1, 10, 10.2, 9.95, 10.1), true, unchanged},
		{"slower beyond the bound", steady, s(11.5, 11.4, 11.6, 11.5, 11.5), true, regressed},
		{"faster beyond the noise", steady, s(9, 9.1, 8.9, 9, 9.05), true, improved},
		{"throughput down", steady, s(8, 8.1, 7.9, 8, 8), false, regressed},
		{"throughput up", steady, s(12, 12.1, 11.9, 12, 12), false, improved},
		{"too noisy to tell", steady, s(8, 12, 10, 14, 9), true, unresolved},
		{"noisy but every run better", s(10, 14, 12, 16, 11), s(5, 6, 5.5, 7, 5), true, improved},
	} {
		if got, _ := verdict(c.old, c.cur, c.lower, 0.10); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	set := func(round []float64, failed int64, samples float64, digest string) *ResultSet {
		return &ResultSet{Schema: resultSchema, Seed: 1, Workloads: []*WorkloadSet{{
			Workload: "paper_batch", Seeds: []int64{1},
			EndToEnd:  map[string]*Series{"us_per_sample": newSeries("us", round)},
			Attempted: 100, Failed: failed,
			Checks:   []Checks{{TBFNV64: digest}},
			PerLayer: map[string]driverValue{"ddc.samples": {Value: samples, Unit: "count"}},
		}}}
	}
	base := write("base.json", set([]float64{4, 4.1, 3.9, 4, 4}, 0, 500, "aa"))
	for _, c := range []struct {
		name string
		cur  *ResultSet
		bad  bool
		says string
	}{
		{"same", set([]float64{4, 4.05, 3.95, 4, 4.1}, 0, 500, "aa"), false, "unchanged"},
		{"slower", set([]float64{6, 6.1, 5.9, 6, 6}, 0, 500, "aa"), true, "regressed"},
		{"more failures", set([]float64{4, 4.1, 3.9, 4, 4}, 1, 500, "aa"), true, "failed_share"},
		{"count moved", set([]float64{4, 4.1, 3.9, 4, 4}, 0, 501, "aa"), true, "MISMATCH"},
		{"bytes moved", set([]float64{4, 4.1, 3.9, 4, 4}, 0, 500, "bb"), true, "TBv1 bytes differ"},
	} {
		var out bytes.Buffer
		bad, err := compareFiles(&out, "../../BENCHMARK.json", base, write("cur.json", c.cur))
		if err != nil {
			t.Fatal(err)
		}
		if bad != c.bad || !strings.Contains(out.String(), c.says) {
			t.Errorf("%s: regressed=%v (want %v), output lacks %q:\n%s", c.name, bad, c.bad, c.says, out.String())
		}
	}
}
