package scenario

import (
	"fmt"
	"time"

	"winlab/internal/analysis"
	"winlab/internal/harvest"
	"winlab/internal/trace"
)

// Metrics are the headline numbers a claim may reference.
type Metrics struct {
	// Availability is the mean fraction of the *current* fleet that
	// answered each probe sweep — lifetime-aware, so a hardware
	// refresh is not read as an availability drop just because the
	// catalogue lists both the old and the new machine.
	Availability float64
	// Equivalence is the perf-weighted idle fraction: the paper's
	// cluster-equivalence upper bound (analysis.Equivalence).
	Equivalence float64
	// HarvestYield is the effective cluster-equivalence ratio of the
	// reference harvester (free machines only, hourly checkpoints).
	HarvestYield float64
	// HarvestWork is the harvester's absolute committed work in
	// index-hours.
	HarvestWork float64
}

// Of returns the metric named by a claim's Metric field.
func (m Metrics) Of(metric string) (float64, error) {
	switch metric {
	case MetricAvailability:
		return m.Availability, nil
	case MetricEquivalence:
		return m.Equivalence, nil
	case MetricHarvestYield:
		return m.HarvestYield, nil
	case MetricHarvestWork:
		return m.HarvestWork, nil
	}
	return 0, fmt.Errorf("scenario: unknown metric %q", metric)
}

// Measure computes the claim metrics over one collected trace.
func Measure(d *trace.Dataset) (Metrics, error) {
	var m Metrics
	if len(d.Machines) == 0 || len(d.Iterations) == 0 {
		return m, fmt.Errorf("scenario: cannot measure an empty dataset")
	}
	a := analysis.All(d, analysis.Options{})
	m.Availability = meanActiveFraction(d, a.Availability)
	m.Equivalence = a.Equivalence.TotalRatio
	hv, err := harvest.Run(d, harvest.Config{TaskWork: 1, Checkpoint: time.Hour, Policy: harvest.FreeOnly})
	if err != nil {
		return m, err
	}
	m.HarvestYield = hv.Equivalence
	m.HarvestWork = hv.HarvestedWork
	return m, nil
}

// meanActiveFraction averages PoweredOn over the machines that were
// fleet members at each iteration. On a static fleet the denominator
// is constant and this is AvgPoweredOn / fleet size.
func meanActiveFraction(d *trace.Dataset, av analysis.AvailabilitySeries) float64 {
	partial := false
	for i := range d.Machines {
		if d.Machines[i].PartialLifetime() {
			partial = true
			break
		}
	}
	if !partial {
		if len(d.Machines) == 0 {
			return 0
		}
		return av.AvgPoweredOn / float64(len(d.Machines))
	}
	var sum float64
	n := 0
	for _, p := range av.Points {
		active := 0
		for i := range d.Machines {
			if d.Machines[i].ActiveAt(p.Iter) {
				active++
			}
		}
		if active == 0 {
			continue
		}
		sum += float64(p.PoweredOn) / float64(active)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Check evaluates the claim: got against base. The shift is relative
// to the baseline value ((got-base)/base; absolute when base is 0).
func (cl Claim) Check(base, got Metrics) error {
	b, err := base.Of(cl.Metric)
	if err != nil {
		return err
	}
	g, err := got.Of(cl.Metric)
	if err != nil {
		return err
	}
	shift := g - b
	if b != 0 {
		shift /= b
	}
	switch cl.Direction {
	case DirUp:
		if shift < cl.MinShift {
			return fmt.Errorf("%s: claimed up ≥ %+.1f%%, got %+.1f%% (base %.4g → %.4g)",
				cl.Metric, 100*cl.MinShift, 100*shift, b, g)
		}
	case DirDown:
		if -shift < cl.MinShift {
			return fmt.Errorf("%s: claimed down ≥ %.1f%%, got %+.1f%% (base %.4g → %.4g)",
				cl.Metric, 100*cl.MinShift, 100*shift, b, g)
		}
	case DirFlat:
		if shift > cl.MinShift || -shift > cl.MinShift {
			return fmt.Errorf("%s: claimed flat within ±%.1f%%, got %+.1f%% (base %.4g → %.4g)",
				cl.Metric, 100*cl.MinShift, 100*shift, b, g)
		}
	default:
		return fmt.Errorf("scenario: unknown direction %q", cl.Direction)
	}
	return nil
}
