package analysis

import (
	"runtime"
	"sync"
	"time"

	"winlab/internal/trace"
)

// Options configures the analysis engine. The zero value reproduces the
// paper's choices: the 10-hour forgotten threshold, the 96-hour/24-bin
// session histogram, the 24-hour session-age profile and the
// NBench-weighted equivalence ratio.
type Options struct {
	// Threshold is the forgotten-session threshold; zero means
	// DefaultForgottenThreshold. (To analyse with reclassification
	// disabled, call MainResults with a zero threshold.)
	Threshold time.Duration

	// HistCap / HistBins bound the session-length histogram; zero means
	// the paper's 96 h / 24 bins.
	HistCap  time.Duration
	HistBins int

	// SessionAgeHours bounds the Figure 2 profile; zero means 24.
	SessionAgeHours int

	// UnweightedEquivalence disables the NBench-index weighting of the
	// equivalence ratio (the ablation; the paper weights).
	UnweightedEquivalence bool

	// Workers shards a streamed trace by machine across that many
	// accumulators (AllStream); zero means one. Every count gives the
	// same Results, bit for bit. All ignores it and folds on GOMAXPROCS
	// goroutines, and AllSegments runs one accumulator per segment.
	Workers int
}

// Results bundles every table and figure the paper derives from a trace —
// the same artefacts core.Analyze renders — plus the hour-of-week heatmaps
// the query layer serves.
//
// Results are shared and read-only. All records the Results it returns
// on the frozen index it read (see Recorded), and every later consumer
// of that epoch — a query.Store publish of the same dataset, another
// Recorded call — is handed the same pointer, with every slice, map and
// profile behind it. Copy before modifying anything.
type Results struct {
	Table2       Table2
	SessionAge   SessionAgeProfile
	Availability AvailabilitySeries
	Uptimes      []MachineUptime
	Sessions     SessionStats
	PowerCycles  PowerCycleStats
	Weekly       *WeeklyProfiles
	Equivalence  EquivalenceResult
	Labs         []LabUsage
	Capacity     CapacityReport
	Heatmap      *HeatmapData

	// Dropped counts the observations the engine's exact accumulators
	// skipped (stats.Sum: non-finite, or of magnitude 2^38 or more);
	// the trace doctor asserts it is 0 on the paper, churn and grid
	// traces.
	Dropped int64
}

// withDefaults fills the zero fields with the paper's parameters.
func (o Options) withDefaults() Options {
	if o.Threshold == 0 {
		o.Threshold = DefaultForgottenThreshold
	}
	if o.HistCap <= 0 {
		o.HistCap = 96 * time.Hour
	}
	if o.HistBins <= 0 {
		o.HistBins = 24
	}
	if o.SessionAgeHours <= 0 {
		o.SessionAgeHours = 24
	}
	return o
}

// All computes every artefact of the paper from an in-memory trace in one
// pass of the analysis engine (the accumulator AllStream and AllSegments
// feed from files): the dataset is frozen, its machine spans are cut
// into contiguous groups of about equal sample counts, and each group is
// folded into its own engine on its own goroutine, GOMAXPROCS of them.
// The engines merge exactly, so the Results are the same bits for any
// goroutine count, and the same as AllStream's and AllSegments'.
//
// All always runs the pass, and then records it on the frozen index (see
// Recorded), so the epoch's later consumers need not run it again. The
// returned Results are shared: treat them as read-only.
func All(d *trace.Dataset, opts Options) *Results {
	return allFrozen(d, opts.withDefaults())
}

// allFrozen is All with opts already resolved, so MainResults and Heatmap
// can pass a zero threshold through (reclassification disabled). It
// records the pass under those options.
func allFrozen(d *trace.Dataset, opts Options) *Results {
	opts.Workers = 0 // the pass is the same for any Workers
	idx := d.Index()
	res := foldSpans(d, idx, opts, runtime.GOMAXPROCS(0))
	idx.SetMemo(&recordedPass{opts: opts, res: res})
	return res
}

// foldSpans folds the frozen index's machine spans on up to workers
// goroutines, each taking a contiguous run of machines holding about
// 1/workers of the samples, and merges their engines.
func foldSpans(d *trace.Dataset, idx *trace.Index, opts Options, workers int) *Results {
	type span struct {
		id string
		ss []trace.Sample
	}
	spans := make([]span, 0, len(idx.Machines()))
	idx.EachMachine(func(id string, ss []trace.Sample) {
		spans = append(spans, span{id, ss})
	})
	workers = max(1, min(workers, len(spans)))
	shards := make([]*streamAcc, workers)
	var wg sync.WaitGroup
	lo, done, total := 0, 0, len(d.Samples)
	for w := range shards {
		hi := lo
		for hi < len(spans) && (w == workers-1 || done < (w+1)*total/workers) {
			done += len(spans[hi].ss)
			hi++
		}
		acc := newStreamAcc(d.Start, d.End, d.Period, d.Machines, d.Iterations, opts)
		shards[w] = acc
		wg.Add(1)
		go func(group []span) {
			defer wg.Done()
			for _, sp := range group {
				// Index spans are machine-contiguous by construction,
				// so the contiguity check cannot fire.
				_ = acc.addRun(sp.id, sp.ss)
			}
		}(spans[lo:hi])
		lo = hi
	}
	wg.Wait()
	return fold(shards).finalize(d.Machines, d.Iterations)
}

// recordedPass is an engine pass recorded on the frozen index it read:
// its resolved options and its Results.
type recordedPass struct {
	opts Options
	res  *Results
}

// Recorded returns the Results of the engine pass that All, MainResults
// or Heatmap last recorded on ix, when that pass ran with opts (resolved
// as All resolves them; Workers does not matter); otherwise nil. The
// record lives and dies with the index — InvalidateIndex, SortSamples and
// structural changes drop it — so a non-nil answer is the epoch's pass.
// The Results are shared: treat them as read-only.
func Recorded(ix *trace.Index, opts Options) *Results {
	p, _ := ix.Memo().(*recordedPass)
	opts = opts.withDefaults()
	opts.Workers = 0
	if p == nil || p.opts != opts {
		return nil
	}
	return p.res
}
