package main

import (
	"math"
	"sort"
	"time"
)

// sortedMicros merges per-worker latencies into one ascending slice of
// µs.
func sortedMicros(lat [][]time.Duration) []float64 {
	var out []float64
	for _, ds := range lat {
		for _, d := range ds {
			out = append(out, float64(d)/float64(time.Microsecond))
		}
	}
	sort.Float64s(out)
	return out
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// ascending xs, or 0 when xs is empty.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return xs[rank(len(xs), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples,
// so n-rank samples lie beyond it. The tolerance keeps 99.9% of 1000 at
// 999 despite 99.9 having no exact binary form.
func rank(n int, p float64) int {
	k := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(k, 1), n)
}

// quartiles returns the first quartile, median and third quartile of xs
// the way Python's statistics.quantiles(xs, n=4) computes them (the
// default "exclusive" method), which is how run-to-run spread is judged.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	n, m := 4, len(s)+1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return q[0], q[1], q[2]
}

// median of xs (the middle quartile).
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// durationsMedian is the median of ds in seconds.
func durationsMedian(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}
