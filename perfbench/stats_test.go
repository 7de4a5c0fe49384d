package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: the functions must sort
	}
	return xs
}

func TestNearestRank(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want float64
	}{
		{100, 0.5, 50},
		{100, 0.9, 90},
		{100, 0.99, 99},
		{100, 1, 100},
		{101, 0.5, 51},
		{10, 0.9, 9},
		{1, 0.9, 1},
		{7, 0.01, 1},
	}
	for _, c := range cases {
		if got := nearestRank(seq(c.n), c.p); got != c.want {
			t.Errorf("nearestRank(1..%d, %g) = %g, want %g", c.n, c.p, got, c.want)
		}
	}
	if !math.IsNaN(nearestRank(nil, 0.5)) {
		t.Error("nearestRank of no values should be NaN")
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	if b := beyondTail(100, 0.9); b != 10 {
		t.Fatalf("beyondTail(100, p90) = %d, want 10", b)
	}
	if b := beyondTail(99, 0.9); b != 9 {
		t.Fatalf("beyondTail(99, p90) = %d, want 9", b)
	}
	if _, err := tailPercentile(seq(99), 0.9); err == nil {
		t.Error("p90 over 99 samples leaves 9 beyond it; want an error")
	}
	got, err := tailPercentile(seq(100), 0.9)
	if err != nil || got != 90 {
		t.Errorf("tailPercentile(1..100, p90) = %g, %v; want 90", got, err)
	}
	if _, err := tailPercentile(seq(999), 0.99); err == nil {
		t.Error("p99 over 999 samples leaves 9 beyond it; want an error")
	}
	if _, err := tailPercentile(seq(1000), 0.99); err != nil {
		t.Errorf("p99 over 1000 samples: %v", err)
	}
}

func TestTailPercentileCountsFailuresAsSlowest(t *testing.T) {
	xs := seq(100)
	for i := 0; i < 10; i++ {
		xs[i] = math.Inf(1) // failed jobs miss every latency limit
	}
	got, err := tailPercentile(xs, 0.9)
	if err != nil || got != 90 {
		t.Errorf("p90 with 10 failures = %g, %v; want 90", got, err)
	}
	xs[10] = math.Inf(1)
	if got, _ := tailPercentile(xs, 0.9); !math.IsInf(got, 1) {
		t.Errorf("p90 with 11 failures = %g, want +Inf", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
}

func TestJobSeedsAreStableAndDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		s := jobSeed(7, i)
		if s != jobSeed(7, i) {
			t.Fatal("jobSeed not deterministic")
		}
		if seen[s] {
			t.Fatalf("jobSeed(7, %d) repeats", i)
		}
		seen[s] = true
	}
	if jobSeed(7, 0) == jobSeed(8, 0) {
		t.Error("different workload seeds give the same first job")
	}
}
