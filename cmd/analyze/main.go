// Command analyze recomputes the paper's tables and figures from a
// previously collected trace file (see labmon -trace).
//
// Usage:
//
//	analyze [-csvdir dir] trace.tb[.gz]
//	analyze -stream [-workers N] trace.tb[.gz]
//
// -stream analyses the trace out-of-core: samples are decoded and
// folded into single-pass accumulators without ever materialising the
// dataset, so memory stays flat regardless of trace size. It skips the
// survival-predictor section, which needs random access.
// A segment manifest from a sharded run (labmon -shards -segments) is
// accepted in place of a trace file — the unmerged segments stream
// straight into the accumulators, one goroutine per segment, no
// compaction needed.
package main

import (
	"flag"
	"fmt"
	"os"

	"winlab/internal/core"
	"winlab/internal/trace"
)

func main() {
	csvDir := flag.String("csvdir", "", "export figure CSVs into this directory")
	paper := flag.Bool("paper", false, "append the paper-vs-measured comparison table")
	streaming := flag.Bool("stream", false, "analyse out-of-core (constant memory)")
	workers := flag.Int("workers", 1, "with -stream: machine-sharded analysis width (1 = exact sequential)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: analyze [-csvdir dir] [-stream [-workers N]] trace.tb[.gz]")
		os.Exit(2)
	}
	var rep *core.Report
	if *streaming {
		var err error
		rep, err = core.AnalyzeStream(flag.Arg(0), *workers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "analyze:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "analyze: streamed %d samples (%d catalogued machines)\n",
			rep.Table2.Both.Samples, len(rep.Uptimes))
	} else {
		d, err := trace.ReadFile(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "analyze:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "analyze: %d machines, %d iterations, %d samples\n",
			len(d.Machines), len(d.Iterations), len(d.Samples))
		rep = core.Analyze(d)
	}
	rep.Render(os.Stdout)
	if *paper {
		fmt.Println()
		rep.ComparePaper(os.Stdout)
	}
	if *csvDir != "" {
		if err := rep.WriteCSVs(*csvDir); err != nil {
			fmt.Fprintln(os.Stderr, "analyze: writing CSVs:", err)
			os.Exit(1)
		}
	}
}
