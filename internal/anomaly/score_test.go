package anomaly

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// The scoring side of the detection-quality gate (gate_test.go): events
// are matched against the injection Labels and counted per kind.

// Matches reports whether e is a correct detection of this label:
// same kind, iteration spans overlapping within slack iterations, and
// compatible coordinates. A machine-scoped event matches if the machine
// is targeted, or — for lab-wide labels — if it belongs to the labeled
// lab. A lab-scoped event matches on the lab: detectors may legitimately
// escalate a dense machine-scoped injection to lab level.
func (l Label) Matches(e Event, slackIters int) bool {
	if e.Kind != l.Kind {
		return false
	}
	if e.LastIter < l.FirstIter-slackIters || e.FirstIter > l.LastIter+slackIters {
		return false
	}
	if e.Machine != "" {
		for _, m := range l.Machines {
			if m == e.Machine {
				return true
			}
		}
		return len(l.Machines) == 0 && e.Lab == l.Lab
	}
	return e.Lab == l.Lab
}

// KindScore is the precision/recall of one detector kind over a labeled
// run (or several merged with Merge).
type KindScore struct {
	Kind          Kind
	Events        int // events emitted
	MatchedEvents int // events matching ≥1 label (precision numerator)
	Labels        int // ground-truth anomalies
	HitLabels     int // labels with ≥1 matching event (recall numerator)
}

// Precision returns MatchedEvents/Events (1 when no events were emitted:
// silence on a clean trace is perfect precision).
func (s KindScore) Precision() float64 {
	if s.Events == 0 {
		return 1
	}
	return float64(s.MatchedEvents) / float64(s.Events)
}

// Recall returns HitLabels/Labels (1 when nothing was injected).
func (s KindScore) Recall() float64 {
	if s.Labels == 0 {
		return 1
	}
	return float64(s.HitLabels) / float64(s.Labels)
}

// Merge accumulates another run's counts (same kind).
func (s KindScore) Merge(o KindScore) KindScore {
	s.Events += o.Events
	s.MatchedEvents += o.MatchedEvents
	s.Labels += o.Labels
	s.HitLabels += o.HitLabels
	return s
}

// Score matches emitted events against ground-truth labels and returns
// one KindScore per detector kind (stable Kinds() order; kinds with
// neither events nor labels are included with perfect scores so the
// gate's table is complete). slackIters widens every label window in
// both directions — detectors confirm a few iterations after onset and
// may date evidence a few iterations before it.
func Score(events []Event, labels []Label, slackIters int) []KindScore {
	byKind := make(map[Kind]*KindScore, len(Kinds()))
	get := func(k Kind) *KindScore {
		s := byKind[k]
		if s == nil {
			s = &KindScore{Kind: k}
			byKind[k] = s
		}
		return s
	}
	for _, k := range Kinds() {
		get(k)
	}
	hit := make([]bool, len(labels))
	for _, e := range events {
		s := get(e.Kind)
		s.Events++
		matched := false
		for i, l := range labels {
			if l.Matches(e, slackIters) {
				matched = true
				hit[i] = true
			}
		}
		if matched {
			s.MatchedEvents++
		}
	}
	for i, l := range labels {
		s := get(l.Kind)
		s.Labels++
		if hit[i] {
			s.HitLabels++
		}
	}
	out := make([]KindScore, 0, len(byKind))
	for _, s := range byKind {
		out = append(out, *s)
	}
	sort.SliceStable(out, func(i, j int) bool { return kindRank(out[i].Kind) < kindRank(out[j].Kind) })
	return out
}

func kindRank(k Kind) int {
	for i, kk := range Kinds() {
		if kk == k {
			return i
		}
	}
	return len(Kinds())
}

// MergeScores folds per-run score slices (e.g. one per seed) into one
// aggregate slice, kind by kind.
func MergeScores(runs ...[]KindScore) []KindScore {
	byKind := make(map[Kind]KindScore)
	for _, run := range runs {
		for _, s := range run {
			byKind[s.Kind] = byKind[s.Kind].Merge(KindScore{
				Kind:          s.Kind,
				Events:        s.Events,
				MatchedEvents: s.MatchedEvents,
				Labels:        s.Labels,
				HitLabels:     s.HitLabels,
			})
		}
	}
	out := make([]KindScore, 0, len(byKind))
	for k, s := range byKind {
		s.Kind = k
		out = append(out, s)
	}
	sort.SliceStable(out, func(i, j int) bool { return kindRank(out[i].Kind) < kindRank(out[j].Kind) })
	return out
}

// FormatScores renders the gate's table.
func FormatScores(scores []KindScore) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %7s %7s %7s %7s %10s %8s\n",
		"detector", "events", "match", "labels", "hit", "precision", "recall")
	for _, s := range scores {
		fmt.Fprintf(&b, "%-24s %7d %7d %7d %7d %10.3f %8.3f\n",
			s.Kind, s.Events, s.MatchedEvents, s.Labels, s.HitLabels, s.Precision(), s.Recall())
	}
	return b.String()
}

// TestScoreMatching pins the label-matching semantics: kind must agree,
// iteration windows overlap within slack, and entity attribution follows
// the machine/lab scoping rules (a machine-scoped event matches a
// lab-wide label; a lab-scoped event matches machine-scoped labels of
// the same lab — detectors may legitimately escalate).
func TestScoreMatching(t *testing.T) {
	labels := []Label{
		{Kind: KindRebootStorm, Lab: "L01", FirstIter: 100, LastIter: 110},
		{Kind: KindRebootStorm, Lab: "L02", Machines: []string{"L02-M01"}, FirstIter: 200, LastIter: 210},
		{Kind: KindUsageDrift, Lab: "L03", Machines: []string{"L03-M05"}, FirstIter: 300, LastIter: 340},
	}
	events := []Event{
		// Hits.
		{Kind: KindRebootStorm, Lab: "L01", FirstIter: 104, LastIter: 108},                     // lab-scoped on lab-wide label
		{Kind: KindRebootStorm, Machine: "L01-M03", Lab: "L01", FirstIter: 112, LastIter: 113}, // within slack past the window
		{Kind: KindRebootStorm, Lab: "L02", FirstIter: 201, LastIter: 205},                     // lab-scoped on machine-scoped label
		{Kind: KindUsageDrift, Machine: "L03-M05", Lab: "L03", FirstIter: 310, LastIter: 314},  // exact machine
		// Misses.
		{Kind: KindUsageDrift, Machine: "L03-M09", Lab: "L03", FirstIter: 310, LastIter: 314}, // wrong machine
		{Kind: KindRebootStorm, Lab: "L01", FirstIter: 130, LastIter: 131},                    // outside window+slack
		{Kind: KindSensorStaleness, Lab: "L01", FirstIter: 104, LastIter: 108},                // wrong kind (and no label for it)
	}
	scores := Score(events, labels, 8)
	byKind := map[Kind]KindScore{}
	for _, s := range scores {
		byKind[s.Kind] = s
	}

	storm := byKind[KindRebootStorm]
	if storm.Events != 4 || storm.MatchedEvents != 3 {
		t.Errorf("storm events %d matched %d, want 4/3", storm.Events, storm.MatchedEvents)
	}
	if storm.Labels != 2 || storm.HitLabels != 2 {
		t.Errorf("storm labels %d hit %d, want 2/2", storm.Labels, storm.HitLabels)
	}
	drift := byKind[KindUsageDrift]
	if drift.Precision() != 0.5 || drift.Recall() != 1 {
		t.Errorf("drift P/R = %v/%v, want 0.5/1", drift.Precision(), drift.Recall())
	}
	stale := byKind[KindSensorStaleness]
	if stale.Precision() != 0 || stale.Recall() != 1 {
		t.Errorf("unlabeled-kind P/R = %v/%v, want 0 precision (pure FP), vacuous recall 1",
			stale.Precision(), stale.Recall())
	}
	// A kind with neither events nor labels is vacuously perfect.
	collapse := byKind[KindAvailabilityCollapse]
	if collapse.Precision() != 1 || collapse.Recall() != 1 {
		t.Errorf("idle-kind P/R = %v/%v, want 1/1", collapse.Precision(), collapse.Recall())
	}

	merged := MergeScores(scores, scores)
	for _, m := range merged {
		single := byKind[m.Kind]
		if m.Events != 2*single.Events || m.Labels != 2*single.Labels {
			t.Errorf("%s merge doubled nothing: %+v vs %+v", m.Kind, m, single)
		}
		if m.Precision() != single.Precision() || m.Recall() != single.Recall() {
			t.Errorf("%s merge changed rates: %v/%v vs %v/%v",
				m.Kind, m.Precision(), m.Recall(), single.Precision(), single.Recall())
		}
	}
}
