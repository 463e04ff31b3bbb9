package analysis

import (
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
	// accumulators (AllStream); zero or one is the exact sequential pass.
	// All is always that exact pass and ignores Workers, and AllSegments
	// runs one accumulator per segment.
	Workers int
}

// Results bundles every table and figure the paper derives from a trace —
// the same artefacts core.Analyze renders — plus the hour-of-week heatmaps
// the query layer serves.
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
// sequential pass of the analysis engine (the accumulator AllStream and
// AllSegments feed from files): the dataset is frozen, and each machine's
// time-sorted span is fed in sorted machine order — exactly the order a
// TBv1 file written from the frozen dataset streams in, which is why
// AllStream with one worker reproduces All bit for bit.
func All(d *trace.Dataset, opts Options) *Results {
	return allFrozen(d, opts.withDefaults())
}

// allFrozen is All with opts already resolved, so MainResults and Heatmap
// can pass a zero threshold through (reclassification disabled).
func allFrozen(d *trace.Dataset, opts Options) *Results {
	idx := d.Index()
	acc := newStreamAcc(d.Start, d.End, d.Period, d.Machines, d.Iterations, opts)
	idx.EachMachine(func(id string, ss []trace.Sample) {
		// Index spans are machine-contiguous by construction, so the
		// contiguity check cannot fire.
		_ = acc.addRun(id, ss)
	})
	acc.finish()
	return acc.finalize(d.Machines, d.Iterations)
}
