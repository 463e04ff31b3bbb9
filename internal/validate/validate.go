// Package validate is the differential half of the trace doctor: it
// re-runs, as a library, every equivalence claim the repo's performance
// work rests on. PRs 1–4 rebuilt the pipeline for speed — frozen index,
// pooled buffers, append/in-place codec, TBv1 — and each rewrite came
// with an "identical output" claim asserted in some test. This package centralises those claims so the tracedoctor CLI
// and `make doctor` can exercise all of them against arbitrary seeds,
// diffing down to the first divergent field via check.FirstDiff /
// check.DiffDatasets instead of a bare reflect.DeepEqual boolean:
//
//   - Dataset→TBv1→Dataset identity through trace.ReadAny's content
//     sniffing (the codec is lossless by design);
//   - the analysis engine's sources: the stream cursor reproducing
//     ReadBinary sample for sample, and analysis.AllStream over the TBv1
//     encoding, sequential and sharded, bit-identical to analysis.All
//     over the dataset;
//   - the collector: experiment.Run with Shards=4 reproducing the
//     one-shard (serial) dataset and stats exactly — also with the
//     labelled anomaly scenarios injected, where the fault wrapper's
//     own counters must agree too — per-shard stats folding back into
//     the fleet-wide total (the deleted sequential collector survives
//     as the golden digests in internal/experiment), the segment-file
//     write→manifest→compact cycle yielding bytes identical to encoding
//     the merged dataset directly, the manifest checker passing over a
//     freshly written segment set, the shard-aware readers
//     (trace.ReadFile on a manifest, analysis.AllSegments over unmerged
//     segments) agreeing with the in-memory reference;
//   - the metamorphic relations (ROADMAP item 17): analysing the trace
//     with every instant moved by one week gives the reference Results
//     with every instant moved by one week (R1); relabelling machines
//     within their labs changes nothing but the per-machine rows' IDs
//     (R2); a disjoint copy of the fleet doubles every count and keeps
//     every mean and ratio (R3);
//   - no exact accumulator dropping an observation, on the paper run,
//     a fleet-churn run and a small grid collection;
//   - and, finally, the invariant checker itself over the collected
//     dataset — a differential suite is pointless if both arms agree on
//     corrupt data.
package validate

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"time"

	"winlab/internal/analysis"
	"winlab/internal/ddc"
	"winlab/internal/experiment"
	"winlab/internal/trace"
	"winlab/internal/trace/check"
	"winlab/internal/trace/stream"
)

// Failure is one broken equivalence claim: which check, and the first
// divergence it found.
type Failure struct {
	Check  string // e.g. "collect/serial-vs-workers/dataset"
	Detail string // first divergent field, with coordinates
}

func (f Failure) String() string { return f.Check + ": " + f.Detail }

// Config parameterises a Suite run.
type Config struct {
	Seed    int64 // simulation seed; zero means 1
	Days    int   // experiment length; zero means 7 (the full paper run is 77)
	Workers int   // parallel-arm width; zero means 8
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Days <= 0 {
		c.Days = 7
	}
	if c.Workers <= 1 {
		c.Workers = 8
	}
	return c
}

// Suite runs every differential check for one seed and returns the
// failures; an empty slice means every equivalence claim held.
func Suite(cfg Config) []Failure {
	cfg = cfg.withDefaults()
	var fails []Failure
	add := func(name, detail string) {
		if detail != "" {
			fails = append(fails, Failure{Check: name, Detail: detail})
		}
	}

	serial, err := run(cfg, 1, false)
	if err != nil {
		// Without the reference arm nothing else can run.
		return append(fails, Failure{Check: "collect/serial", Detail: err.Error()})
	}

	add("trace/tbv1-roundtrip", diffTBRoundTrip(serial.Dataset))

	r1 := analysis.All(serial.Dataset, analysis.Options{})

	// Streaming arms. analysis.All froze the dataset above, so a TBv1
	// encoding taken now is canonical (machine-contiguous) — the order
	// both the cursor differential and AllStream's bit-exactness
	// guarantee are stated against.
	var tb bytes.Buffer
	if err := trace.WriteBinary(&tb, serial.Dataset); err != nil {
		add("stream/encode", err.Error())
	} else {
		add("stream/cursor-vs-readbinary", diffCursor(serial.Dataset, tb.Bytes()))
		add("stream/allstream-vs-all", diffAllStream(r1, tb.Bytes(), 1))
		add("stream/allstream-parallel", diffAllStream(r1, tb.Bytes(), cfg.Workers))
	}

	// Sharded collection arms. The collector keeps one serial
	// scheduling chain whatever the shard count, so the four-shard merged
	// dataset and stats must be *exactly* the one-shard run's, and
	// AllSegments over its unmerged segments exactly All's Results.
	sharded, err := run(cfg, 4, false)
	if err != nil {
		add("shard/collect", err.Error())
	} else {
		add("shard/collect-vs-serial/dataset", check.DiffDatasets(serial.Dataset, sharded.Dataset))
		add("shard/collect-vs-serial/stats", check.FirstDiff(serial.Collector, sharded.Collector))
		add("shard/stats-sum", check.FirstDiff(sharded.Collector, ddc.SumShardStats(sharded.ShardStats)))
		diffShardSegments(serial, sharded, r1, add)
	}

	add("metamorph/week-shift", diffShifted(serial.Dataset, r1, weekShift))
	add("metamorph/relabel", diffRelabelled(serial.Dataset, r1))
	add("metamorph/duplicate", diffDuplicated(serial.Dataset, r1))
	diffDropped(cfg, r1, add)

	// Shards×Inject: the fault decision is made on the scheduling chain,
	// so an injected run is as partition-independent as a clean one.
	add("shard/inject-vs-single", diffInjected(cfg))

	if r := check.Check(serial.Dataset, check.Options{}); !r.OK() {
		add("check/invariants", r.Err().Error())
	}
	return fails
}

// diffShardSegments exercises the on-disk segment cycle: per-shard TBv1
// segment files plus manifest, header-deep manifest check, streaming
// compaction back to one canonical trace (byte-identical to encoding
// the merged dataset directly), the manifest-aware trace.ReadFile, and
// analysis.AllSegments over the unmerged segments.
func diffShardSegments(serial, sharded *experiment.Result, r1 *analysis.Results, add func(name, detail string)) {
	dir, err := os.MkdirTemp("", "winlab-validate-segments-*")
	if err != nil {
		add("shard/segments", err.Error())
		return
	}
	defer os.RemoveAll(dir)

	mpath, err := trace.WriteSegments(dir, "run", sharded.ShardDatasets)
	if err != nil {
		add("shard/segments-write", err.Error())
		return
	}
	m, err := trace.ReadManifest(mpath)
	if err != nil {
		add("shard/segments-manifest", err.Error())
		return
	}
	if r := check.CheckManifest(m, dir, check.Options{}); !r.OK() {
		add("shard/manifest-check", r.Err().Error())
	}

	var merged bytes.Buffer
	if err := trace.MergeSegments(&merged, m, dir); err != nil {
		add("shard/segments-merge", err.Error())
		return
	}
	var direct bytes.Buffer
	if err := trace.WriteBinary(&direct, sharded.Dataset); err != nil {
		add("shard/segments-encode", err.Error())
		return
	}
	if !bytes.Equal(merged.Bytes(), direct.Bytes()) {
		add("shard/segments-merge-bytes", fmt.Sprintf(
			"compacted trace differs from direct encoding at byte %d (sizes %d vs %d)",
			firstByteDiff(merged.Bytes(), direct.Bytes()), merged.Len(), direct.Len()))
	}
	got, err := trace.ReadBinary(bytes.NewReader(merged.Bytes()))
	if err != nil {
		add("shard/segments-merge-read", err.Error())
		return
	}
	add("shard/segments-merge-dataset", check.DiffDatasets(serial.Dataset, got))

	viaFile, err := trace.ReadFile(mpath)
	if err != nil {
		add("shard/readany-manifest", err.Error())
	} else {
		add("shard/readany-manifest", check.DiffDatasets(serial.Dataset, viaFile))
	}

	rSeg, err := analysis.AllSegments(m.SegmentPaths(dir), analysis.Options{})
	if err != nil {
		add("shard/allsegments-vs-all", err.Error())
	} else {
		add("shard/allsegments-vs-all", check.FirstDiff(r1, rSeg))
	}
}

// diffCursor drains a stream cursor over tb, rebuilds a Dataset from
// the runs, and diffs it against the in-memory reference — the
// "streaming decode ≡ batch decode" claim.
func diffCursor(want *trace.Dataset, tb []byte) string {
	c, err := stream.New(bytes.NewReader(tb))
	if err != nil {
		return "open: " + err.Error()
	}
	got := &trace.Dataset{
		Start:      c.Start(),
		End:        c.End(),
		Period:     c.Period(),
		Machines:   c.Machines(),
		Iterations: c.Iterations(),
	}
	var run stream.Run
	for {
		ok, err := c.NextRun(&run)
		if err != nil {
			return "decode: " + err.Error()
		}
		if !ok {
			break
		}
		got.Samples = append(got.Samples, run.Samples...)
	}
	return check.DiffDatasets(want, got)
}

// diffAllStream asserts the streaming analysis with the given worker
// count is bit-identical to the in-memory reference across all
// artefacts.
func diffAllStream(want *analysis.Results, tb []byte, workers int) string {
	c, err := stream.New(bytes.NewReader(tb))
	if err != nil {
		return "open: " + err.Error()
	}
	got, err := analysis.AllStream(c, analysis.Options{Workers: workers})
	if err != nil {
		return "allstream: " + err.Error()
	}
	return check.FirstDiff(want, got)
}

// Run executes one serial collection arm for cfg — the reference run
// the suite diffs everything against. Exported so the tracedoctor CLI
// can reuse the same configuration for its file-level round trips.
func Run(cfg Config) (*experiment.Result, error) {
	return run(cfg.withDefaults(), 1, false)
}

// run executes the experiment across the given number of collector
// shards, optionally with the labelled anomaly scenarios injected.
func run(cfg Config, shards int, inject bool) (*experiment.Result, error) {
	ec := experiment.Default(cfg.Seed)
	ec.Days = cfg.Days
	ec.Shards = shards
	if inject {
		var err error
		if ec.Inject, _, err = experiment.DefaultAnomalyScenarios(ec); err != nil {
			return nil, err
		}
	}
	return experiment.Run(ec)
}

// diffInjected runs the labelled anomaly scenarios at one and at four
// shards and asserts dataset, collector stats and fault-injection
// counters are identical. The scenario windows sit in week two, so the
// arm runs at least the 12 days DefaultAnomalyScenarios needs.
func diffInjected(cfg Config) string {
	cfg.Days = max(cfg.Days, 12)
	one, err := run(cfg, 1, true)
	if err != nil {
		return "shards=1: " + err.Error()
	}
	four, err := run(cfg, 4, true)
	if err != nil {
		return "shards=4: " + err.Error()
	}
	if one.Faults.DownDenied == 0 {
		return "inert injection: no probe was denied"
	}
	if d := check.DiffDatasets(one.Dataset, four.Dataset); d != "" {
		return "dataset: " + d
	}
	if d := check.FirstDiff(one.Collector, four.Collector); d != "" {
		return "stats: " + d
	}
	if d := check.FirstDiff(one.Faults, four.Faults); d != "" {
		return "fault stats: " + d
	}
	return ""
}

// diffTBRoundTrip asserts Dataset→TBv1→Dataset is the identity, read
// back through the content-sniffing front door.
func diffTBRoundTrip(ds *trace.Dataset) string {
	var b bytes.Buffer
	if err := trace.WriteBinary(&b, ds); err != nil {
		return "write: " + err.Error()
	}
	ds2, err := trace.ReadAny(bytes.NewReader(b.Bytes()))
	if err != nil {
		return "read back: " + err.Error()
	}
	return check.DiffDatasets(ds, ds2)
}

func firstByteDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// weekShift is R1's offset: whole weeks, so in a UTC trace every instant
// keeps its weekday, its time of day and its week slot.
const weekShift = 7 * 24 * time.Hour

// diffShifted is the metamorphic shift relation (R1 with d = weekShift).
// Every artefact of the paper is a function of durations and of the time
// of week, so analysing a copy of ds with every instant moved by d must
// give want with every instant moved by d: shifting the copy's Results
// back leaves nothing for FirstDiff to find, float bits included. It
// catches any dependence on absolute time, such as a wall-clock read or
// an epoch-anchored bucket; weekly-periodic or relative arithmetic is
// invisible to it. Zero times stay zero both ways.
func diffShifted(ds *trace.Dataset, want *analysis.Results, d time.Duration) string {
	shifted := cloneDataset(ds)
	shifted.Start, shifted.End = shiftTime(ds.Start, d), shiftTime(ds.End, d)
	for i := range shifted.Iterations {
		it := &shifted.Iterations[i]
		it.Start, it.End = shiftTime(it.Start, d), shiftTime(it.End, d)
	}
	for i := range shifted.Samples {
		s := &shifted.Samples[i]
		s.Time, s.BootTime, s.SessionStart = shiftTime(s.Time, d), shiftTime(s.BootTime, d), shiftTime(s.SessionStart, d)
	}
	got := analysis.All(shifted, analysis.Options{})
	shiftTimes(reflect.ValueOf(got), -d)
	return check.FirstDiff(want, got)
}

func shiftTime(t time.Time, d time.Duration) time.Time {
	if t.IsZero() {
		return t
	}
	return t.Add(d)
}

var timeType = reflect.TypeOf(time.Time{})

// shiftTimes moves every non-zero time.Time reachable from v through
// pointers, exported struct fields, slices and arrays by d. Storage two
// paths share would move twice, and R1 would report it.
func shiftTimes(v reflect.Value, d time.Duration) {
	if v.Type() == timeType {
		if v.CanSet() {
			v.Set(reflect.ValueOf(shiftTime(v.Interface().(time.Time), d)))
		}
		return
	}
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			shiftTimes(v.Elem(), d)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				shiftTimes(v.Field(i), d)
			}
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			shiftTimes(v.Index(i), d)
		}
	}
}
