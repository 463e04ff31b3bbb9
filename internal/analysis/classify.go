// Package analysis computes every result of the paper's evaluation from a
// monitoring trace: the forgotten-session reclassification (§4.2), the
// main results table (Table 2), the availability and stability analyses
// (Figures 3 and 4, §5.2), the weekly distributions (Figure 5) and the
// cluster-equivalence ratio (Figure 6, §5.4), plus the hour-of-week
// heatmaps the query layer serves.
//
// One engine computes all of them in a single pass (allstream.go). Its
// sources are an in-memory trace (All), a TBv1 cursor (AllStream) and the
// unmerged segments of a sharded run (AllSegments). Everything here
// consumes only the collected samples, catalogue and per-iteration
// bookkeeping — never simulator internals — so the same code analyses a
// trace captured from live agents.
package analysis

import (
	"time"

	"winlab/internal/trace"
)

// DefaultForgottenThreshold is the session age at or beyond which the
// paper considers a login sample to come from a forgotten (abandoned)
// session and counts it as a non-occupied machine (§4.2).
const DefaultForgottenThreshold = 10 * time.Hour

// Class is the occupancy classification of a sample.
type Class int

// Sample classes.
const (
	NoLogin   Class = iota // no interactive session
	WithLogin              // interactive session, counted as real usage
	Forgotten              // session open but ≥ threshold old: reclassified
)

// Classify classifies one sample under the given forgotten-session
// threshold. A zero threshold disables reclassification (raw occupancy).
func Classify(s *trace.Sample, threshold time.Duration) Class {
	if !s.HasSession() {
		return NoLogin
	}
	if threshold > 0 && s.SessionAge() >= threshold {
		return Forgotten
	}
	return WithLogin
}

// Occupied reports whether the class counts as an occupied machine after
// reclassification: Forgotten samples count as non-occupied.
func (c Class) Occupied() bool { return c == WithLogin }

// String names the class.
func (c Class) String() string {
	switch c {
	case NoLogin:
		return "no-login"
	case WithLogin:
		return "with-login"
	case Forgotten:
		return "forgotten"
	default:
		return "unknown"
	}
}

// ReclassifyStats reports the §4.2 numbers (Table2.Reclass): how many raw
// login samples there were and how many of them the threshold
// reclassified.
type ReclassifyStats struct {
	Threshold       time.Duration
	RawLoginSamples int // samples with an open session (277,513 in the paper)
	Reclassified    int // of those, session age ≥ threshold (87,830)
}
