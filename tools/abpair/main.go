// Command abpair is the paired A/B benchmark: it runs pipebench's
// single-workload mode (--workload) for a parent revision (A) and for
// the working tree (B) back to back on the same unseen seeds, in A/B/B/A
// order so drift on the box falls on both sides, plus one A/A block that
// shows the noise floor, and writes the pairs with per-side medians and
// quartiles, the win count and an exact two-sided sign-test p-value.
//
//	abpair -rev REV [-tree DIR] [-workloads live_publish] [-pairs 10]
//	       [-seed 9001] [-seconds 20] -o bench/ledger/PR<n>-ab.json
//
// A is built from `git worktree add .bench_build/parent REV` (removed
// afterwards), or from DIR when -tree names an existing checkout of REV.
// Each side's pipebench is built once, from that side's own
// tools/pipebench, into its .bench_build/pipebench (where its run.sh
// puts it), and every run execs that binary from the side's root, so a
// run's resource usage is the benchmark's alone, not a go build's. The
// build is -trimpath: two checkouts of the same source give the same
// bytes wherever they sit, so a self-test compares one program with
// itself.
//
// Besides BENCHMARK.json's end-to-end metrics, every pair carries two
// informative ones read from the finished process (os.ProcessState):
// cpu_us_per_attempt, its user+system CPU (pipebench's phase children
// included) over the result line's attempted count, and peak_rss_mb, the
// largest resident set of the run or any one of its phase children
// (Linux reports Maxrss in KB). They get the same verdict and inform a
// claim; the BENCHMARK.json bounds stay the gate.
//
// A metric moved when the sign test gives p ≤ 0.05 and the median moved
// by more than A's interquartile range; otherwise it is unchanged.
// Whether the move also exceeds the metric's BENCHMARK.json bound is
// recorded beside the verdict.
// Run from the repository root (make abpair).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
)

type metricDecl struct {
	Name        string  `json:"name"`
	Better      string  `json:"better"`
	Bound       float64 `json:"bound"`
	Informative bool    `json:"-"`
}

// processMetrics are the paired metrics read from the process itself;
// they have no BENCHMARK.json bound and gate nothing.
var processMetrics = []metricDecl{
	{Name: "cpu_us_per_attempt", Better: "lower", Informative: true},
	{Name: "peak_rss_mb", Better: "lower", Informative: true},
}

type pair struct {
	Seed  int64   `json:"seed"`
	Order string  `json:"order"` // "AB" or "BA"
	A     float64 `json:"a"`
	B     float64 `json:"b"`
	Delta float64 `json:"delta_pct"` // (B−A)/A
}

type side struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	IQR    float64 `json:"iqr"`
}

type metricResult struct {
	Workload    string  `json:"workload"`
	Metric      string  `json:"metric"`
	Better      string  `json:"better"`
	Pairs       []pair  `json:"pairs"`
	A           side    `json:"a"`
	B           side    `json:"b"`
	MedianDelta float64 `json:"median_delta_pct"`
	Informative bool    `json:"informative"`  // read from the process, not a BENCHMARK.json metric
	BeyondBound bool    `json:"beyond_bound"` // |median delta| > BENCHMARK.json's bound
	Wins        int     `json:"wins"`         // pairs where B is better
	Losses      int     `json:"losses"`
	SignTestP   float64 `json:"sign_test_p"`
	AA          pair    `json:"aa"` // A against itself: the noise floor
	Verdict     string  `json:"verdict"`
}

func main() {
	var (
		rev       = flag.String("rev", "", "parent revision (A); B is the working tree")
		tree      = flag.String("tree", "", "existing checkout of -rev to use instead of a git worktree")
		workloads = flag.String("workloads", "live_publish", "comma-separated pipebench workloads")
		pairs     = flag.Int("pairs", 10, "A/B pairs per workload")
		seed0     = flag.Int64("seed", 9001, "first seed; pair i runs seed+i, the A/A block seed+pairs")
		seconds   = flag.Float64("seconds", 20, "timed seconds per pipebench run")
		out       = flag.String("o", "", "write the result JSON here")
	)
	flag.Parse()
	if err := run(*rev, *tree, strings.Split(*workloads, ","), *pairs, *seed0, *seconds, *out); err != nil {
		fmt.Fprintln(os.Stderr, "abpair:", err)
		os.Exit(1)
	}
}

func run(rev, tree string, workloads []string, pairs int, seed0 int64, seconds float64, out string) error {
	if rev == "" || out == "" || pairs < 1 {
		return fmt.Errorf("need -rev, -o and -pairs ≥ 1")
	}
	var decl struct {
		EndToEnd []metricDecl `json:"end_to_end"`
	}
	if b, err := os.ReadFile("BENCHMARK.json"); err != nil {
		return err
	} else if err := json.Unmarshal(b, &decl); err != nil {
		return err
	}
	if tree == "" {
		tree = filepath.Join(".bench_build", "parent")
		_ = exec.Command("git", "worktree", "remove", "--force", tree).Run()
		if b, err := exec.Command("git", "worktree", "add", "--detach", tree, rev).CombinedOutput(); err != nil {
			return fmt.Errorf("git worktree add: %v: %s", err, b)
		}
		defer exec.Command("git", "worktree", "remove", "--force", tree).Run()
	}
	dirs := map[byte]string{'A': tree, 'B': "."}
	bins := map[byte]string{}
	for s, dir := range dirs {
		bin, err := build(dir)
		if err != nil {
			return err
		}
		bins[s] = bin
	}
	metrics := append(decl.EndToEnd, processMetrics...)

	var results []metricResult
	for _, w := range workloads {
		runs := map[string][]pair{}
		for i := 0; i < pairs; i++ {
			seed := seed0 + int64(i)
			order := []string{"AB", "BA"}[i%2]
			got := map[byte]map[string]float64{}
			for _, s := range []byte(order) {
				m, err := runOnce(bins[s], dirs[s], w, seed, seconds)
				if err != nil {
					return err
				}
				got[s] = m
			}
			for _, d := range metrics {
				a, b := got['A'][d.Name], got['B'][d.Name]
				runs[d.Name] = append(runs[d.Name], pair{Seed: seed, Order: order, A: a, B: b, Delta: pct(a, b)})
			}
			fmt.Fprintf(os.Stderr, "abpair: %s seed %d %s: us_per_sample A %.3f B %.3f, cpu_us_per_attempt A %.3f B %.3f, peak_rss_mb A %.0f B %.0f\n",
				w, seed, order, got['A']["us_per_sample"], got['B']["us_per_sample"],
				got['A']["cpu_us_per_attempt"], got['B']["cpu_us_per_attempt"], got['A']["peak_rss_mb"], got['B']["peak_rss_mb"])
		}
		var aa [2]map[string]float64 // side A twice: the noise floor
		for i := range aa {
			m, err := runOnce(bins['A'], dirs['A'], w, seed0+int64(pairs), seconds)
			if err != nil {
				return err
			}
			aa[i] = m
		}
		for _, d := range metrics {
			r := summarize(w, d, runs[d.Name])
			a1, a2 := aa[0][d.Name], aa[1][d.Name]
			r.AA = pair{Seed: seed0 + int64(pairs), Order: "AA", A: a1, B: a2, Delta: pct(a1, a2)}
			results = append(results, r)
			fmt.Fprintf(os.Stderr, "abpair: %s %s: A %.4g B %.4g (%+.1f %%), %d/%d wins, p=%.4f, A/A %+.1f %%: %s\n",
				w, d.Name, r.A.Median, r.B.Median, r.MedianDelta, r.Wins, len(r.Pairs), r.SignTestP, r.AA.Delta, r.Verdict)
		}
	}
	b, err := json.MarshalIndent(map[string]any{"schema": "abpair/1", "parent": rev, "seconds": seconds, "results": results}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(b, '\n'), 0o644)
}

// build compiles dir's own pipebench once into dir/.bench_build/pipebench
// and returns the binary's absolute path.
func build(dir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(dir, ".bench_build", "pipebench"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-trimpath", "-o", bin, ".")
	cmd.Dir = filepath.Join(dir, "tools", "pipebench")
	cmd.Env = append(os.Environ(), "GOFLAGS=-buildvcs=false", "GOTOOLCHAIN=local")
	if b, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("%s: build pipebench: %v: %s", dir, err, b)
	}
	return bin, nil
}

// runOnce runs bin once on one workload from dir and returns its
// end-to-end metrics (the JSON object on the last line of its output)
// and the two process metrics.
func runOnce(bin, dir, workload string, seed int64, seconds float64) (map[string]float64, error) {
	cmd := exec.Command(bin, "--workload", workload,
		"--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds))
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %s seed %d: %w", dir, workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var res struct {
		Correct   bool  `json:"correct"`
		Attempted int64 `json:"attempted"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s: %s seed %d: result line: %w", dir, workload, seed, err)
	}
	if !res.Correct || res.Attempted <= 0 {
		return nil, fmt.Errorf("%s: %s seed %d: run reported incorrect or attempted nothing", dir, workload, seed)
	}
	m := map[string]float64{}
	for k, v := range res.Metrics {
		m[k] = v.Value
	}
	ps := cmd.ProcessState
	m["cpu_us_per_attempt"] = float64((ps.UserTime() + ps.SystemTime()).Microseconds()) / float64(res.Attempted)
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		m["peak_rss_mb"] = float64(ru.Maxrss) / 1024
	}
	return m, nil
}

func summarize(workload string, d metricDecl, ps []pair) metricResult {
	r := metricResult{Workload: workload, Metric: d.Name, Better: d.Better, Pairs: ps, Informative: d.Informative}
	var as, bs []float64
	for _, p := range ps {
		as, bs = append(as, p.A), append(bs, p.B)
		if p.A == p.B {
			continue
		}
		if (p.B < p.A) == (d.Better == "lower") {
			r.Wins++
		} else {
			r.Losses++
		}
	}
	r.A, r.B = quartiles(as), quartiles(bs)
	r.MedianDelta = pct(r.A.Median, r.B.Median)
	r.BeyondBound = !d.Informative && math.Abs(r.MedianDelta) > 100*d.Bound
	r.SignTestP = signTest(r.Wins, r.Losses)
	r.Verdict = "unchanged"
	if r.SignTestP <= 0.05 && math.Abs(r.B.Median-r.A.Median) > r.A.IQR {
		if r.Wins > r.Losses {
			r.Verdict = "improved"
		} else {
			r.Verdict = "regressed"
		}
	}
	return r
}

func pct(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return 100 * (b - a) / a
}

// quartiles uses linear interpolation between order statistics.
func quartiles(xs []float64) side {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		x := p * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	r := side{Median: q(0.5), Q1: q(0.25), Q3: q(0.75)}
	r.IQR = r.Q3 - r.Q1
	return r
}

// signTest is the exact two-sided sign-test p-value for w wins and l
// losses (ties dropped): P(X ≤ min(w, l)) doubled, X ~ Binomial(w+l, ½).
func signTest(w, l int) float64 {
	n, k := w+l, min(w, l)
	if n == 0 {
		return 1
	}
	p, c := 0.0, 1.0 // c = C(n, i)
	for i := 0; i <= k; i++ {
		p += c
		c = c * float64(n-i) / float64(i+1)
	}
	return math.Min(1, 2*p/math.Pow(2, float64(n)))
}
