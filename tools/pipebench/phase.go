package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"os/exec"
	"time"

	"winlab/internal/trace"
	"winlab/internal/trace/check"
	"winlab/internal/trace/stream"
)

// shapes sizes the workloads. The full shapes are the benchmark; the toy
// shapes exist for the smoke test only.
type shapes struct {
	PaperDays int // paper_batch and the reanalyze archive
	WarmDays  int // paper_batch's warm-up round

	LiveDays     int // live_publish run length; one epoch per 24 iterations
	LiveWarmDays int
	Burst        int // warm requests per epoch, over two connections

	GridMachines     int
	GridIters        int
	GridWarmMachines int

	LayerDays   int // dataset behind the fixed-count layer loops
	LayerSweeps int // full-fleet sweeps committed before the clone is timed
	LoopN       int // iterations of the nanosecond-scale loops
	Reps        int // repetitions of the millisecond-scale loops

	Setups    int // how many times set-up runs; the median is reported
	MinRounds int // rounds measured even when --seconds is already spent
}

var fullShapes = shapes{
	PaperDays: 77, WarmDays: 7, LiveDays: 14, LiveWarmDays: 2, Burst: 1000,
	GridMachines: 100000, GridIters: 12, GridWarmMachines: 10000,
	LayerDays: 28, LayerSweeps: 1250, LoopN: 200000, Reps: 9,
	Setups: 3, MinRounds: 3,
}

var toyShapes = shapes{
	PaperDays: 2, WarmDays: 1, LiveDays: 1, LiveWarmDays: 1, Burst: 100,
	GridMachines: 2000, GridIters: 4, GridWarmMachines: 200,
	LayerDays: 2, LayerSweeps: 20, LoopN: 2000, Reps: 3,
	Setups: 1, MinRounds: 1,
}

// gridShards and gridChunkIters are the grid_shards collector layout:
// two shard goroutines (the box has two cores) rolling four-iteration
// TBv1 segment chunks.
const (
	gridShards     = 2
	gridChunkIters = 4
)

// phaseSpec tells one measured process what to run. It crosses the
// process boundary as JSON in the -child argument.
type phaseSpec struct {
	Phase   string  `json:"phase"`
	Seed    int64   `json:"seed"`
	Seconds float64 `json:"seconds"`
	Trace   bool    `json:"trace"`
	Toy     bool    `json:"toy"`
	Dir     string  `json:"dir"` // scratch directory, shared by a workload's phases
}

// Checks is the correctness record of one workload run.
type Checks struct {
	Samples    int64    `json:"samples"`
	Iterations int64    `json:"iterations"`
	TBBytes    int64    `json:"tb_bytes"`
	TBFNV64    string   `json:"tb_fnv64"` // FNV-64a of the workload's TBv1 file
	Passed     int      `json:"passed"`
	Failed     []string `json:"failed"`
}

// tally counts operations and correctness checks. Phases, runs and
// result sets each carry one.
type tally struct {
	Attempted int64  `json:"attempted"`
	Failed    int64  `json:"failed"`
	Checks    Checks `json:"checks"`
}

// add folds o's counts and check outcomes into t; the trace facts of
// t.Checks (samples, digest) stay t's own.
func (t *tally) add(o tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
	t.Checks.Passed += o.Checks.Passed
	t.Checks.Failed = append(t.Checks.Failed, o.Checks.Failed...)
}

// phaseResult is what a measured process reports back.
type phaseResult struct {
	tally
	Metrics map[string]float64 `json:"metrics"`
	Rounds  []float64          `json:"rounds"` // wall seconds of each timed round
	Spans   []Span             `json:"spans,omitempty"`
}

// phase is the state of one running phase.
type phase struct {
	spec phaseSpec
	sh   shapes
	tr   *tracer
	res  phaseResult

	// samples is how many samples one round moves through the pipeline.
	// The seed decides it (±6 % on the paper fleet), so round time is also
	// reported per sample.
	samples int
}

var phases = map[string]func(*phase) error{
	"paper_batch":       runPaperBatch,
	"reanalyze.archive": runReanalyzeArchive,
	"reanalyze.stream":  runReanalyzeStream,
	"reanalyze.batch":   runReanalyzeBatch,
	"live_publish":      runLivePublish,
	"grid_shards":       runGridShards,
	"layers":            runLayers,
}

// runPhase executes one phase in this process.
func runPhase(spec phaseSpec) (*phaseResult, error) {
	fn := phases[spec.Phase]
	if fn == nil {
		return nil, fmt.Errorf("unknown phase %q", spec.Phase)
	}
	p := &phase{spec: spec, sh: fullShapes}
	if spec.Toy {
		p.sh = toyShapes
	}
	if spec.Trace {
		p.tr = newTracer(spec.Phase)
	}
	p.res.Metrics = map[string]float64{}
	if err := fn(p); err != nil {
		return nil, fmt.Errorf("%s: %w", spec.Phase, err)
	}
	p.res.Spans = p.tr.done()
	return &p.res, nil
}

// spawnPhase runs a phase in a fresh child process of this binary, so
// peak RSS and garbage-collector state belong to that phase alone.
func spawnPhase(spec phaseSpec) (*phaseResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	arg, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-child", string(arg))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("phase %s: %w", spec.Phase, err)
	}
	var res phaseResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("phase %s: bad result: %w", spec.Phase, err)
	}
	return &res, nil
}

// setup runs fn reps times and reports the median as setup_s: set-up is
// repeated so that one slow start does not decide the metric.
func (p *phase) setup(reps int, fn func() error) error {
	secs := make([]float64, reps)
	for i := range secs {
		t := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		secs[i] = time.Since(t).Seconds()
	}
	p.res.Metrics["setup_s"] = median(secs)
	return nil
}

// measure times rounds of fn until the phase's seconds are spent (and at
// least MinRounds). fn does the timed work under the round's root span
// and returns a verify step, which runs outside the timed region.
func (p *phase) measure(fn func(round int, root *openSpan) (verify func() error, err error)) error {
	before := readRT()
	deadline := time.Now().Add(time.Duration(p.spec.Seconds * float64(time.Second)))
	for r := 0; r < p.sh.MinRounds || time.Now().Before(deadline); r++ {
		root := p.tr.start(nil, r, rootSpan)
		t := time.Now()
		verify, err := fn(r, root)
		d := time.Since(t)
		root.end(0, 0)
		if err != nil {
			return fmt.Errorf("round %d: %w", r, err)
		}
		p.res.Rounds = append(p.res.Rounds, d.Seconds())
		if err := verify(); err != nil {
			return fmt.Errorf("round %d verify: %w", r, err)
		}
	}
	for k, v := range rtMetrics(before, readRT(), len(p.res.Rounds)) {
		p.res.Metrics[k] = v
	}
	p.res.Metrics["round_s"] = median(p.res.Rounds)
	if p.samples > 0 {
		p.res.Metrics["us_per_sample"] = 1e6 * median(p.res.Rounds) / float64(p.samples)
	}
	return nil
}

// check books one correctness check; a failed one also counts as a
// failed operation.
func (p *phase) check(name string, ok bool) {
	p.res.Attempted++
	if ok {
		p.res.Checks.Passed++
		return
	}
	p.res.Failed++
	p.res.Checks.Failed = append(p.res.Checks.Failed, name)
}

// fileFNV64 digests a file with FNV-64a and returns its size.
func fileFNV64(path string) (sum uint64, size int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	h := fnv.New64a()
	size, err = io.Copy(h, f)
	return h.Sum64(), size, err
}

// digestTB digests the TBv1 file a round wrote. Rounds of one run share
// a seed, so every round must write the same bytes as the first.
func (p *phase) digestTB(round int, path string) error {
	sum, size, err := fileFNV64(path)
	if err != nil {
		return err
	}
	digest := fmt.Sprintf("%016x", sum)
	if round == 0 {
		p.res.Checks.TBFNV64, p.res.Checks.TBBytes = digest, size
	}
	p.check("tb-bytes-repeat", digest == p.res.Checks.TBFNV64)
	return nil
}

// doctorTB runs the streamed trace doctor — check.Stream over a cursor —
// on a TBv1 file and records how long the pass took. It runs once per
// phase, after the rounds and after peak RSS is read: every round wrote
// the same bytes (digestTB), and the doctor's per-machine state must not
// count as the workload's memory.
func (p *phase) doctorTB(path string, wantSamples int64) error {
	t := time.Now()
	c, err := stream.Open(path)
	if err != nil {
		return err
	}
	defer c.Close()
	st := check.NewStream(c.Start(), c.End(), c.Period(), check.Options{})
	var s trace.Sample
	for {
		ok, err := c.Next(&s)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		st.Sample(&s)
	}
	for _, it := range c.Iterations() {
		st.Iteration(it)
	}
	rep := st.Report()
	p.res.Metrics["trace.check_stream_s"] = time.Since(t).Seconds()
	p.check("check-stream-clean", rep.OK())
	if !rep.OK() {
		fmt.Fprintf(os.Stderr, "pipebench: %s: %v\n", path, rep.Err())
	}
	p.check("tb-sample-count", int64(rep.Samples) == wantSamples)
	p.res.Checks.Samples = int64(rep.Samples)
	p.res.Checks.Iterations = int64(rep.Iterations)
	return nil
}
