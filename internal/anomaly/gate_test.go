package anomaly_test

import (
	"testing"

	"winlab/internal/anomaly"
	"winlab/internal/experiment"
)

// TestDetectionQualityGate is the detection-quality gate. For sim seeds
// 1–3 it runs a 12-day paper-fleet experiment with the labeled injection
// scenarios (experiment.DefaultAnomalyScenarios), feeds the live sample
// stream through the streaming detectors and scores their events against
// the injection schedule. Aggregated over the seeds, every kind must
// reach 0.90 precision and 0.80 recall, and a kind with no labels fails:
// the scenario set would no longer exercise its detector.
func TestDetectionQualityGate(t *testing.T) {
	const (
		days         = 12 // week 1 warms the seasonal baselines before the week-2 injections
		slack        = 8  // label-window slack, iterations
		minPrecision = 0.90
		minRecall    = 0.80
	)
	var runs [][]anomaly.KindScore
	for seed := int64(1); seed <= 3; seed++ {
		cfg := experiment.Default(seed)
		cfg.Days = days
		// The gate measures detector skill against injected anomalies, so
		// the coordinator itself runs clean: random outages would puncture
		// every lab's availability at once and no label would cover it.
		cfg.OutageFraction = 0
		inject, labels, err := experiment.DefaultAnomalyScenarios(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		det := anomaly.New(anomaly.DefaultConfig(), nil)
		cfg.Inject, cfg.Detect = inject, det
		if _, err := experiment.Run(cfg); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		events := det.Ring().Snapshot()
		scores := anomaly.Score(events, labels, slack)
		t.Logf("seed %d: %d events, %d labels\n%s", seed, len(events), len(labels), anomaly.FormatScores(scores))
		runs = append(runs, scores)
	}

	agg := anomaly.MergeScores(runs...)
	t.Logf("aggregate over seeds 1-3 (%d days, slack %d):\n%s", days, slack, anomaly.FormatScores(agg))
	for _, s := range agg {
		if s.Labels == 0 {
			t.Errorf("%s: no ground-truth labels; the scenario set does not exercise this detector", s.Kind)
		}
		if p := s.Precision(); p < minPrecision {
			t.Errorf("%s: precision %.3f < %.2f", s.Kind, p, minPrecision)
		}
		if r := s.Recall(); r < minRecall {
			t.Errorf("%s: recall %.3f < %.2f", s.Kind, r, minRecall)
		}
	}
}
