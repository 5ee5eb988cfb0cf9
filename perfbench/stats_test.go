package main

import (
	"testing"
	"time"
)

func TestQuantileIsNearestRankSample(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		q    float64
		want float64
	}{
		{0.5, 5}, {0.95, 10}, {0.9, 9}, {0.91, 10}, {0.1, 1}, {0.01, 1}, {1, 10},
	} {
		if got := quantile(s, tc.q); got != tc.want {
			t.Errorf("quantile(1..10, %g) = %g, want %g", tc.q, got, tc.want)
		}
	}
	// A skewed sample: the answer is a sample, not a value interpolated
	// inside a bucket.
	skew := sortedCopy([]float64{2500, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9})
	if got := quantile(skew, 0.95); got != 2500 {
		t.Errorf("p95 of skewed sample = %g, want the sample 2500", got)
	}
	if got := quantile(skew, 0.5); got != 0.5 {
		t.Errorf("p50 of skewed sample = %g, want 0.5", got)
	}
}

func TestSampleCountRule(t *testing.T) {
	for _, tc := range []struct {
		n      int
		q      float64
		beyond int
	}{
		{300, 0.95, 15}, {300, 0.99, 3}, {1000, 0.99, 10}, {999, 0.99, 9}, {10, 0.5, 5}, {1, 0.99, 0},
	} {
		if got := beyond(tc.n, tc.q); got != tc.beyond {
			t.Errorf("beyond(%d, %g) = %d, want %d", tc.n, tc.q, got, tc.beyond)
		}
	}
	cands := []float64{0.5, 0.9, 0.95, 0.99, 0.999}
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{300, 0.95}, {1000, 0.99}, {999, 0.95}, {10000, 0.999}, {19, 0}, {20, 0.5},
	} {
		if got := highestPercentile(tc.n, cands...); got != tc.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median reordered its input")
	}
}

func TestPoissonScheduleIsSeededAndFixedCount(t *testing.T) {
	a := poissonSchedule(7, 100, 2*time.Second)
	b := poissonSchedule(7, 100, 2*time.Second)
	c := poissonSchedule(8, 100, 2*time.Second)
	if len(a) != 200 || len(c) != 200 {
		t.Fatalf("counts %d, %d; want 200 (rate × window)", len(a), len(c))
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed differs at %d", i)
		}
		if a[i] != c[i] {
			same = false
		}
		if i > 0 && a[i] <= a[i-1] {
			t.Fatalf("offsets not strictly increasing at %d", i)
		}
		if a[i] < 0 || a[i] >= 2*time.Second {
			t.Fatalf("offset %v outside the window", a[i])
		}
	}
	if same {
		t.Error("different seeds gave the same schedule")
	}
}
