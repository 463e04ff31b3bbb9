package main

import (
	"math"
	"testing"
)

func TestSignTest(t *testing.T) {
	for _, c := range []struct {
		w, l int
		p    float64
	}{
		{10, 0, 2.0 / 1024}, {9, 1, 22.0 / 1024}, {1, 9, 22.0 / 1024}, {5, 5, 1}, {0, 0, 1}, {3, 0, 0.25},
	} {
		if got := signTest(c.w, c.l); math.Abs(got-c.p) > 1e-12 {
			t.Errorf("signTest(%d, %d) = %v, want %v", c.w, c.l, got, c.p)
		}
	}
}

func TestSummarizeVerdicts(t *testing.T) {
	lower := metricDecl{Name: "us_per_sample", Better: "lower"}
	var same, faster []pair
	for i := 0; i < 10; i++ {
		a := 40 + float64(i%3)
		same = append(same, pair{A: a, B: a + []float64{-0.5, 0.5}[i%2]})
		faster = append(faster, pair{A: a, B: a * 0.7})
	}
	if r := summarize("w", lower, same); r.Verdict != "unchanged" || r.Wins != 5 {
		t.Errorf("alternating noise: %s with %d wins, want unchanged with 5", r.Verdict, r.Wins)
	}
	if r := summarize("w", lower, faster); r.Verdict != "improved" || r.Wins != 10 {
		t.Errorf("30 %% faster: %s with %d wins, want improved with 10", r.Verdict, r.Wins)
	}
	if r := summarize("w", processMetrics[0], faster); r.Verdict != "improved" || !r.Informative || r.BeyondBound {
		t.Errorf("informative metric 30 %% lower: %s, informative %v, beyond bound %v; want improved, true, false",
			r.Verdict, r.Informative, r.BeyondBound)
	}
	if q := quartiles([]float64{4, 1, 3, 2, 5}); q.Median != 3 || q.Q1 != 2 || q.Q3 != 4 || q.IQR != 2 {
		t.Errorf("quartiles = %+v", q)
	}
}
