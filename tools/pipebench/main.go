// Command pipebench is the whole-pipeline benchmark: it drives
// collect → TBv1 → analyse → publish → serve through four workloads and
// reports named end-to-end and per-layer metrics, a correctness record
// and, for a traced run, a stage table. README.md is the glossary.
//
// Three ways to run it:
//
//	pipebench --workload W --seed N --seconds S --trace 0|1
//	    one run of one workload; the last line of standard output is the
//	    JSON result the benchmark driver reads (BENCHMARK.json names this).
//	pipebench [-runs R] [-seed N] [-seconds S] [-trace 1] [-label L] [-o out.json]
//	    the suite: R runs of every workload on seeds N..N+R-1, one traced
//	    run each with -trace 1, written as one result set for the ledger.
//	pipebench -compare old.json new.json
//	    verdict per metric between two result sets, by the bounds in the
//	    working directory's BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
)

// scratchDir holds everything a run writes, under the working directory
// (the repository root, where benchFile declares metrics and bounds).
const (
	scratchDir = ".bench_build"
	benchFile  = "BENCHMARK.json"
)

func main() {
	// The box has two cores; pin it so a larger host measures the same
	// program.
	runtime.GOMAXPROCS(2)

	var (
		child    = flag.String("child", "", "internal: run one phase from its JSON spec and print its JSON result")
		workload = flag.String("workload", "", "run this one workload and end with the driver's JSON line")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Float64("seconds", 20, "seconds of timed rounds per run")
		trace    = flag.Int("trace", 0, "1: also run traced and report per-layer metrics and the stage table")
		runs     = flag.Int("runs", 5, "suite: runs per workload, on consecutive seeds")
		label    = flag.String("label", "", "suite: label stored in the result set")
		out      = flag.String("o", "", "suite: write the result set to this file")
		compare  = flag.Bool("compare", false, "compare two result sets: pipebench -compare old.json new.json")
	)
	flag.Parse()

	var err error
	switch {
	case *child != "":
		err = childMain(*child)
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("usage: pipebench -compare old.json new.json")
			break
		}
		var regressed bool
		regressed, err = compareFiles(os.Stdout, benchFile, flag.Arg(0), flag.Arg(1))
		if err == nil && regressed {
			os.Exit(1)
		}
	default:
		if err = os.MkdirAll(scratchDir, 0o755); err != nil {
			break
		}
		r := &runner{spawn: spawnPhase, scratch: scratchDir}
		if *workload != "" {
			err = driverMain(r, *workload, *seed, *seconds, *trace != 0)
		} else {
			err = suiteMain(r, *seed, *seconds, *runs, *trace != 0, *label, *out)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		os.Exit(2)
	}
}

// childMain runs one phase in this process and prints its result.
func childMain(arg string) error {
	var spec phaseSpec
	if err := json.Unmarshal([]byte(arg), &spec); err != nil {
		return fmt.Errorf("bad -child spec: %w", err)
	}
	res, err := runPhase(spec)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// driverValue and driverResult are the benchmark driver's result line.
type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

// driverMain runs one workload once and ends standard output with the
// driver's JSON line: the end-to-end metrics of an untraced run, the
// per-layer metrics of a traced one.
func driverMain(r *runner, workload string, seed int64, seconds float64, traced bool) error {
	if !slices.Contains(workloadNames, workload) {
		return fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
	}
	run, err := r.runWorkload(workload, seed, seconds, traced)
	if err != nil {
		return err
	}
	printRun(os.Stdout, run)
	res := driverResult{Correct: run.correct(), Attempted: run.Attempted, Failed: run.Failed, Metrics: map[string]driverValue{}}
	defs, values := endToEndDefs, run.EndToEnd
	if traced {
		defs, values = perLayerDefs, run.PerLayer
		path := filepath.Join(r.scratch, "spans-"+workload+".jsonl")
		if err := writeSpansJSONL(path, run.spans); err != nil {
			return err
		}
		fmt.Printf("spans: %d written to %s\n", len(run.spans), path)
	}
	for _, d := range defs {
		res.Metrics[d.Name] = driverValue{Value: values[d.Name], Unit: d.Unit}
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}
