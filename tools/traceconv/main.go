// Command traceconv rewrites a trace file as TBv1, exports it as CSV
// for reading by eye or in a spreadsheet, or compacts a sharded run's
// segments into one trace. The input is sniffed from the file content —
// a TBv1 trace, gzipped or not, or a segment manifest. The output is
// TBv1 unless its name ends in ".csv" or ".csv.gz": then it is the CSV
// export, which is write-only (nothing reads it back). A trailing ".gz"
// adds gzip either way.
//
// It prints the before/after file sizes (here a 3-day labmon trace):
//
//	$ traceconv t.tb t.tb.gz
//	traceconv: t.tb (836.3 KB) -> t.tb.gz (397.8 KB), 47.6% of input
//
// Usage:
//
//	traceconv [-check] <in> <out.tb[.gz]|out.csv[.gz]>
//	traceconv -merge [-check] <run.manifest.json> <out.tb[.gz]>
//
// With -check the tool re-reads the TBv1 file it just wrote and verifies
// the dataset survived unchanged (machine, iteration and sample counts,
// experiment bounds). A CSV export cannot be checked, so -check refuses
// one.
//
// With -merge the input is a segment manifest from a sharded collection
// run (labmon -shards -segments, or the ddcd shards); the segments are
// compacted into one canonical TBv1 trace with the streaming k-way
// merger — constant memory, no shard is ever materialised — so the tool
// handles grid-scale segment sets. The output is always TBv1.
package main

import (
	"compress/gzip"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"winlab/internal/trace"
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, "traceconv:", err)
	os.Exit(1)
}

// human renders a byte count with a binary-ish human suffix.
func human(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}

// gzipName reports whether an output name asks for gzip (".gz", any case).
func gzipName(path string) bool {
	return strings.HasSuffix(strings.ToLower(path), ".gz")
}

// csvName reports whether an output name asks for the CSV export
// (".csv" before an optional ".gz", any case).
func csvName(path string) bool {
	return strings.HasSuffix(strings.TrimSuffix(strings.ToLower(path), ".gz"), ".csv")
}

// create writes the file at path through write, gzip-compressed when the
// name ends in ".gz". A failed write removes the partial file.
func create(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var w io.Writer = f
	var gz *gzip.Writer
	if gzipName(path) {
		gz = gzip.NewWriter(f)
		w = gz
	}
	err = write(w)
	if gz != nil {
		if cerr := gz.Close(); err == nil {
			err = cerr
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
	}
	return err
}

func main() {
	check := flag.Bool("check", false, "re-read the TBv1 output and verify the dataset round-tripped")
	merge := flag.Bool("merge", false, "treat <in> as a segment manifest and stream-compact its segments into <out> (TBv1)")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: traceconv [-check] <in> <out.tb[.gz]|out.csv[.gz]>")
		fmt.Fprintln(os.Stderr, "       traceconv -merge [-check] <run.manifest.json> <out.tb[.gz]>")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	in, out := flag.Arg(0), flag.Arg(1)

	if csvName(out) && (*merge || *check) {
		fail(fmt.Errorf("%s: the CSV export cannot be merged into or checked; write .tb[.gz]", out))
	}
	if *merge {
		mergeSegments(in, out, *check)
		return
	}
	d, err := trace.ReadFile(in)
	if err != nil {
		fail(fmt.Errorf("reading %s: %w", in, err))
	}
	if csvName(out) {
		err = create(out, func(w io.Writer) error { return writeCSV(w, d) })
	} else {
		err = trace.WriteFile(out, d)
	}
	if err != nil {
		fail(fmt.Errorf("writing %s: %w", out, err))
	}

	if *check {
		rd, err := trace.ReadFile(out)
		if err != nil {
			fail(fmt.Errorf("check: re-reading %s: %w", out, err))
		}
		switch {
		case len(rd.Machines) != len(d.Machines):
			fail(fmt.Errorf("check: machines %d != %d", len(rd.Machines), len(d.Machines)))
		case len(rd.Iterations) != len(d.Iterations):
			fail(fmt.Errorf("check: iterations %d != %d", len(rd.Iterations), len(d.Iterations)))
		case len(rd.Samples) != len(d.Samples):
			fail(fmt.Errorf("check: samples %d != %d", len(rd.Samples), len(d.Samples)))
		case !rd.Start.Equal(d.Start) || !rd.End.Equal(d.End) || rd.Period != d.Period:
			fail(fmt.Errorf("check: experiment bounds changed"))
		}
	}

	inInfo, err := os.Stat(in)
	if err != nil {
		fail(err)
	}
	outInfo, err := os.Stat(out)
	if err != nil {
		fail(err)
	}
	pct := 0.0
	if inInfo.Size() > 0 {
		pct = 100 * float64(outInfo.Size()) / float64(inInfo.Size())
	}
	fmt.Fprintf(os.Stderr, "traceconv: %s (%s) -> %s (%s), %.1f%% of input\n",
		in, human(inInfo.Size()), out, human(outInfo.Size()), pct)
}

// mergeSegments stream-compacts the manifest's segment files into out.
func mergeSegments(in, out string, check bool) {
	m, err := trace.ReadManifest(in)
	if err != nil {
		fail(fmt.Errorf("reading %s: %w", in, err))
	}
	if err := create(out, func(w io.Writer) error {
		return trace.MergeSegments(w, m, filepath.Dir(in))
	}); err != nil {
		fail(fmt.Errorf("merging %s: %w", in, err))
	}

	if check {
		rd, err := trace.ReadFile(out)
		if err != nil {
			fail(fmt.Errorf("check: re-reading %s: %w", out, err))
		}
		var samples uint64
		for _, seg := range m.Segments {
			samples += seg.Samples
		}
		switch {
		case uint64(len(rd.Samples)) != samples:
			fail(fmt.Errorf("check: samples %d != manifest total %d", len(rd.Samples), samples))
		case !rd.Start.Equal(m.Start) || !rd.End.Equal(m.End) || rd.Period != m.Period():
			fail(fmt.Errorf("check: experiment bounds changed"))
		}
	}

	var inSize int64
	for _, p := range m.SegmentPaths(filepath.Dir(in)) {
		if fi, err := os.Stat(p); err == nil {
			inSize += fi.Size()
		}
	}
	outInfo, err := os.Stat(out)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "traceconv: %d segments (%s) -> %s (%s)\n",
		len(m.Segments), human(inSize), out, human(outInfo.Size()))
}
