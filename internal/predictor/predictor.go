// Package predictor estimates machine availability from a monitoring
// trace: the probability that a machine, observed up now, is still up (and
// not rebooted) after a given horizon.
//
// The paper closes by noting that harvesting volatile classroom fleets
// "requires survival techniques such as checkpointing, oversubscription
// and multiple executions"; the complementary technique is *placement* —
// preferring machines likely to survive the task. This package provides
// the empirical estimator such a scheduler needs, built from two signals
// the trace offers for free:
//
//   - time-of-week: a machine up on Tuesday 22:00 faces the 4 am shutdown
//     sweep; one up on Tuesday 10:00 usually survives the afternoon;
//   - per-machine history: the paper's Figure 4 shows a stable minority of
//     machines with multi-day uptimes (the "leave-on" population).
package predictor

import (
	"sort"
	"time"

	"winlab/internal/stats"
	"winlab/internal/trace"
)

// hourSlots is the predictor's time-of-week resolution (hourly).
const hourSlots = 7 * 24

// Model is a fitted availability predictor.
type Model struct {
	Horizon time.Duration

	// survivalByHour[h] is the empirical probability that a machine up at
	// week-hour h is still up, same boot, after Horizon.
	survivalByHour [hourSlots]stats.Sum

	// perMachine[id] is the machine's overall survival rate, used to rank
	// machines (Stability) and to modulate the hourly baseline.
	perMachine map[string]*stats.Sum

	overall stats.Sum
}

// weekHour maps a time to its hour-of-week slot (Monday 00:00 = 0).
func weekHour(t time.Time) int {
	day := (int(t.Weekday()) + 6) % 7
	return day*24 + t.Hour()
}

// observe walks one machine's sample sequence and calls fn with each
// (sample index, survived) labelled observation for the horizon.
//
// Labelling reasons from the end of the sample's boot run (the last
// same-boot sample) rather than raw adjacency, so both reboots and
// scheduled shutdowns count as deaths while coordinator outages do not:
//
//   - the boot run extends to or past t+h → survived;
//   - the run ends more than `slack` before t+h → the machine stopped
//     answering probes it should have answered while up: down at t+h;
//   - the run ends within `slack` of t+h → the shutdown may fall on either
//     side of the target: ambiguous, skipped;
//   - t+h is beyond the collector's last iteration (limit): no evidence
//     could exist, skipped.
//
// The scan is O(samples) per machine.
func observe(ss []trace.Sample, horizon, period time.Duration, limit time.Time, fn func(i int, survived float64)) {
	if len(ss) == 0 {
		return
	}
	slack := 2 * period
	// runEnd[i] is the time of the last sample sharing sample i's boot.
	runEnd := make([]time.Time, len(ss))
	for i := len(ss) - 1; i >= 0; i-- {
		if i < len(ss)-1 && trace.SameBoot(&ss[i], &ss[i+1]) {
			runEnd[i] = runEnd[i+1]
		} else {
			runEnd[i] = ss[i].Time
		}
	}
	for i := range ss {
		target := ss[i].Time.Add(horizon)
		switch {
		case !runEnd[i].Before(target):
			fn(i, 1)
		case target.After(limit):
			// beyond the collected window: unknown
		case target.Sub(runEnd[i]) > slack:
			fn(i, 0)
		default:
			// death within one probing window of the target: ambiguous
		}
	}
}

// Fit builds a predictor from a trace for the given horizon. Every sample
// with unambiguous survival evidence (see observe) contributes one
// observation.
func Fit(d *trace.Dataset, horizon time.Duration) *Model {
	if horizon <= 0 {
		horizon = time.Hour
	}
	m := &Model{
		Horizon:    horizon,
		perMachine: make(map[string]*stats.Sum),
	}
	limit := collectorLimit(d)
	d.Index().EachMachine(func(id string, ss []trace.Sample) {
		pm := &stats.Sum{}
		m.perMachine[id] = pm
		observe(ss, horizon, d.Period, limit, func(i int, survived float64) {
			m.survivalByHour[weekHour(ss[i].Time)].Add(survived)
			pm.Add(survived)
			m.overall.Add(survived)
		})
	})
	return m
}

// collectorLimit returns the last instant the collector could have
// produced evidence for: the final iteration's start (or the dataset end).
func collectorLimit(d *trace.Dataset) time.Time {
	if n := len(d.Iterations); n > 0 {
		return d.Iterations[n-1].Start
	}
	return d.End
}

// Survival returns the predicted probability that a machine up at time t
// is still up (same boot) after the model's horizon. It blends the
// time-of-week baseline with the machine's own history, both shrunk
// toward the overall rate: observations within one hour-of-week slot are
// correlated (a class reboots a dozen machines at once), so nominal
// counts overstate the evidence and the shrinkage constants are large.
func (m *Model) Survival(id string, t time.Time) float64 {
	overall := m.overall.Mean()
	base := overall
	if r := &m.survivalByHour[weekHour(t)]; r.N() > 0 {
		const kHour = 400
		w := float64(r.N()) / float64(r.N()+kHour)
		base = overall + w*(r.Mean()-overall)
	}
	pm := m.perMachine[id]
	if pm == nil || pm.N() == 0 {
		return base
	}
	const kMachine = 300
	w := float64(pm.N()) / float64(pm.N()+kMachine)
	p := base + w*(pm.Mean()-overall)
	return stats.Clamp(p, 0, 1)
}

// HourlyBaseline returns the 168 time-of-week survival rates (NaN-free;
// hours without data return the overall mean).
func (m *Model) HourlyBaseline() []float64 {
	out := make([]float64, hourSlots)
	for h := range out {
		if m.survivalByHour[h].N() > 0 {
			out[h] = m.survivalByHour[h].Mean()
		} else {
			out[h] = m.overall.Mean()
		}
	}
	return out
}

// MachineRank is one machine's historical survival rate.
type MachineRank struct {
	Machine  string
	Survival float64
	N        int64
}

// Stability ranks machines by their historical survival rate, descending —
// the machines a placement-aware harvester should prefer.
func (m *Model) Stability() []MachineRank {
	out := make([]MachineRank, 0, len(m.perMachine))
	for id, r := range m.perMachine {
		out = append(out, MachineRank{Machine: id, Survival: r.Mean(), N: r.N()})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Survival != out[j].Survival {
			return out[i].Survival > out[j].Survival
		}
		return out[i].Machine < out[j].Machine
	})
	return out
}

// StableSet returns the IDs of the top fraction (0..1) most stable
// machines with at least minObs observations.
func (m *Model) StableSet(fraction float64, minObs int64) map[string]bool {
	ranked := m.Stability()
	eligible := ranked[:0]
	for _, r := range ranked {
		if r.N >= minObs {
			eligible = append(eligible, r)
		}
	}
	n := int(float64(len(eligible)) * stats.Clamp(fraction, 0, 1))
	out := make(map[string]bool, n)
	for _, r := range eligible[:n] {
		out[r.Machine] = true
	}
	return out
}

// Evaluation is the result of testing a predictor on a trace.
type Evaluation struct {
	Observations int
	// Brier is the mean squared error of the predicted probabilities
	// (lower is better; 0.25 is the score of always predicting 0.5).
	Brier float64
	// BaseRate is the empirical survival rate of the evaluation trace, and
	// BaseBrier the Brier score of always predicting the *training* base
	// rate — the skill-free reference.
	BaseRate  float64
	BaseBrier float64
}

// Skill reports the fractional Brier improvement over the constant
// base-rate predictor (positive = the model has skill).
func (e Evaluation) Skill() float64 {
	if e.BaseBrier == 0 {
		return 0
	}
	return 1 - e.Brier/e.BaseBrier
}

// Evaluate scores the model on a trace (use a held-out time range of the
// training trace, via trace.SplitAt, for an honest estimate).
func (m *Model) Evaluate(d *trace.Dataset) Evaluation {
	var ev Evaluation
	var brier, baseBrier, rate stats.Sum
	base := m.overall.Mean()
	limit := collectorLimit(d)
	d.Index().EachMachine(func(id string, ss []trace.Sample) {
		observe(ss, m.Horizon, d.Period, limit, func(i int, survived float64) {
			p := m.Survival(id, ss[i].Time)
			brier.Add((p - survived) * (p - survived))
			baseBrier.Add((base - survived) * (base - survived))
			rate.Add(survived)
			ev.Observations++
		})
	})
	ev.Brier = brier.Mean()
	ev.BaseBrier = baseBrier.Mean()
	ev.BaseRate = rate.Mean()
	return ev
}
