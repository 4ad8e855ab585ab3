package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{
		{50, 500}, {99, 990}, {99.9, 999}, {100, 1000}, {0.01, 1},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g of 1..1000 = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %g, want 0", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("p99 of one sample = %g, want 7", got)
	}
}

// The reported tail is p99 because a window holds at least 1000 ops,
// which leaves at least ten samples beyond it.
func TestTailHasTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n, beyond int
		p         float64
	}{
		{1000, 10, 99}, {999, 9, 99}, {100, 10, 90}, {99, 9, 90}, {20, 10, 50}, {1000, 1, 99.9},
	} {
		if got := c.n - rank(c.n, c.p); got != c.beyond {
			t.Errorf("%d samples: %d beyond p%g, want %d", c.n, got, c.p, c.beyond)
		}
	}
	if n := windowMinOps; n-rank(n, 99) < 10 {
		t.Errorf("a window of %d ops leaves %d samples beyond p99, want at least 10", n, n-rank(n, 99))
	}
	for _, wl := range workloads {
		if wl.name == "paper-regen" {
			continue // a handful of regenerations, one window; its tail is their maximum
		}
		if n := wl.prefix(false); n < windowMinOps {
			t.Errorf("%s: the first phase guarantees only %d ops, less than one window", wl.name, n)
		}
	}
}

// Quartiles must match Python's statistics.quantiles(xs, n=4), the
// spread the benchmark is accepted on.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{4, 2, 9}, 2, 4, 9},
		{[]float64{5}, 5, 5, 5},
	} {
		q1, m, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(m-c.m) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}
