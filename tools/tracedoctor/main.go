// Command tracedoctor is the trace-validation front end: it runs the
// dataset invariant checker (internal/trace/check) over trace files,
// diffs two traces down to the first divergent field, and re-runs the
// repo's pipeline equivalence claims (internal/validate) as a self-test.
// Input files load through trace.ReadFile: TBv1 traces, gzipped or not,
// and segment manifests.
//
// Usage:
//
//	tracedoctor -check [options] <trace>...
//	tracedoctor -diff <trace-a> <trace-b>
//	tracedoctor -selftest [-seeds 1,2,3] [-days 14] [-workers 8]
//	tracedoctor -write-corpus <dir>
//
// Modes:
//
//	-check     validate every invariant (monotone per-boot counters,
//	           SMART monotonicity, iteration ordering/alignment, ≤1
//	           sample per machine per iteration, session consistency,
//	           sample bounds, index agreement, response accounting) and
//	           print machine/iteration-addressed violations.
//	-diff      load both traces and report the first divergent field
//	           with coordinates, or "identical".
//	-write-corpus  materialise the checker's corrupted-fixture corpus
//	           (one TBv1 trace per invariant class, plus clean.tb) into a
//	           directory — `make doctor` checks them and demands a
//	           non-zero exit on every corrupted one.
//	-selftest  run the differential validation suite per seed (one vs
//	           four collector shards, clean and fault-injected, TBv1
//	           round trips, serial vs parallel analysis), then
//	           write+reload+check each seed's trace as plain and gzipped
//	           TBv1 through real files — the `make doctor` entry point.
//
// Options:
//
//	-limit N        violations to print per trace (default 20; -1 = all)
//	-no-align       skip the period-grid alignment invariant
//	                (wall-clock traces drift off the grid)
//	-no-accounting  skip responded-count reconciliation (for merged or
//	                sliced traces)
//
// Exit status: 0 clean, 1 violations or divergences found, 2 usage or
// I/O errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"winlab/internal/trace"
	"winlab/internal/trace/check"
	"winlab/internal/validate"
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, "tracedoctor:", err)
	os.Exit(2)
}

func main() {
	var (
		doCheck  = flag.Bool("check", false, "invariant-check the given trace files")
		doDiff   = flag.Bool("diff", false, "diff two traces to the first divergent field")
		selftest = flag.Bool("selftest", false, "run the differential validation suite over simulated seeds")
		seeds    = flag.String("seeds", "1,2,3", "comma-separated seeds for -selftest")
		days     = flag.Int("days", 14, "experiment length in days for -selftest")
		workers  = flag.Int("workers", 8, "parallel-arm width for -selftest")
		corpus   = flag.String("write-corpus", "", "write the corrupted-fixture corpus into this directory and exit")
		limit    = flag.Int("limit", 20, "violations to print per trace (-1 = all)")
		noAlign  = flag.Bool("no-align", false, "skip the period-grid alignment invariant")
		noAcct   = flag.Bool("no-accounting", false, "skip responded-count reconciliation")
	)
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: tracedoctor -check <trace>... | -diff <a> <b> | -selftest [-seeds 1,2,3]")
		flag.PrintDefaults()
	}
	flag.Parse()

	opts := check.Options{Limit: *limit, NoAlignment: *noAlign, NoAccounting: *noAcct}
	switch {
	case *doCheck:
		if flag.NArg() < 1 {
			flag.Usage()
			os.Exit(2)
		}
		os.Exit(checkFiles(flag.Args(), opts))
	case *doDiff:
		if flag.NArg() != 2 {
			flag.Usage()
			os.Exit(2)
		}
		os.Exit(diffFiles(flag.Arg(0), flag.Arg(1)))
	case *selftest:
		os.Exit(runSelftest(*seeds, *days, *workers, opts))
	case *corpus != "":
		os.Exit(writeCorpus(*corpus))
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// checkFiles invariant-checks each trace; returns the process exit code.
func checkFiles(paths []string, opts check.Options) int {
	exit := 0
	for _, path := range paths {
		d, err := trace.ReadFile(path)
		if err != nil {
			fail(fmt.Errorf("reading %s: %w", path, err))
		}
		r := check.Check(d, opts)
		if r.OK() {
			fmt.Printf("%s: ok (%d samples, %d iterations, %d machines)\n",
				path, r.Samples, r.Iterations, r.Machines)
			continue
		}
		exit = 1
		fmt.Printf("%s: %d violation(s) over %d samples\n", path, r.Total, r.Samples)
		for _, v := range r.Violations {
			fmt.Printf("  %s\n", v)
		}
		if r.Truncated() {
			fmt.Printf("  ... %d more (raise -limit to see them)\n", r.Total-len(r.Violations))
		}
	}
	return exit
}

// diffFiles loads two traces and reports the first divergent field.
func diffFiles(a, b string) int {
	da, err := trace.ReadFile(a)
	if err != nil {
		fail(fmt.Errorf("reading %s: %w", a, err))
	}
	db, err := trace.ReadFile(b)
	if err != nil {
		fail(fmt.Errorf("reading %s: %w", b, err))
	}
	if d := check.DiffDatasets(da, db); d != "" {
		fmt.Printf("%s vs %s: %s\n", a, b, d)
		return 1
	}
	fmt.Printf("%s vs %s: identical\n", a, b)
	return 0
}

// runSelftest runs the differential suite per seed, then pushes each
// seed's collected trace through real TBv1 files, plain and gzipped, and
// re-checks the reload.
func runSelftest(seedList string, days, workers int, opts check.Options) int {
	seeds, err := parseSeeds(seedList)
	if err != nil {
		fail(err)
	}
	tmp, err := os.MkdirTemp("", "tracedoctor-")
	if err != nil {
		fail(err)
	}
	defer os.RemoveAll(tmp)

	exit := 0
	for _, seed := range seeds {
		fmt.Printf("seed %d: differential suite (%d days, %d workers)\n", seed, days, workers)
		fails := validate.Suite(validate.Config{Seed: seed, Days: days, Workers: workers})
		for _, f := range fails {
			exit = 1
			fmt.Printf("  FAIL %s\n", f)
		}
		if len(fails) > 0 {
			continue
		}
		// File-level round trips: the suite validated in-memory codecs;
		// this leg validates the file paths (gzip by extension).
		res, err := validate.Run(validate.Config{Seed: seed, Days: days})
		if err != nil {
			fail(err)
		}
		for _, name := range []string{"trace.tb", "trace.tb.gz"} {
			path := filepath.Join(tmp, fmt.Sprintf("seed%d-%s", seed, name))
			if err := trace.WriteFile(path, res.Dataset); err != nil {
				fail(fmt.Errorf("writing %s: %w", path, err))
			}
			rd, err := trace.ReadFile(path)
			if err != nil {
				fail(fmt.Errorf("re-reading %s: %w", path, err))
			}
			if r := check.Check(rd, opts); !r.OK() {
				exit = 1
				fmt.Printf("  FAIL %s: %d violation(s), first: %s\n", name, r.Total, r.Violations[0])
				continue
			}
			fmt.Printf("  ok %s\n", name)
		}
	}
	if exit == 0 {
		fmt.Println("all seeds clean")
	}
	return exit
}

// writeCorpus materialises the checker's fixture corpus as TBv1 files:
// clean.tb plus one corrupted trace per serialisable invariant fixture.
func writeCorpus(dir string) int {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fail(err)
	}
	cleanPath := filepath.Join(dir, "clean.tb")
	if err := trace.WriteFile(cleanPath, check.CleanFixture()); err != nil {
		fail(fmt.Errorf("writing %s: %w", cleanPath, err))
	}
	n := 0
	for _, fx := range check.CorruptedFixtures() {
		if !fx.Serializable {
			continue
		}
		path := filepath.Join(dir, fx.Name+".tb")
		if err := trace.WriteFile(path, fx.Dataset); err != nil {
			fail(fmt.Errorf("writing %s: %w", path, err))
		}
		n++
	}
	fmt.Printf("wrote clean.tb and %d corrupted fixtures to %s\n", n, dir)
	return 0
}

func parseSeeds(s string) ([]int64, error) {
	var out []int64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.ParseInt(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q: %w", part, err)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no seeds given")
	}
	return out, nil
}
