// Package stats provides the statistical tooling the attack's receiver
// and the experiment harness use: summary statistics, histograms,
// Gaussian-kernel density estimation (the paper estimates the Figure 7/8
// PDFs with KDE), decision-threshold selection, and decode-accuracy
// metrics.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds the usual descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64
	Min    float64
	Max    float64
	Median float64
	P5     float64
	P95    float64
}

// Summarize computes a Summary. An empty sample yields the zero value.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	s.Std = math.Sqrt(ss / float64(len(xs)))
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = Quantile(sorted, 0.5)
	s.P5 = Quantile(sorted, 0.05)
	s.P95 = Quantile(sorted, 0.95)
	return s
}

// Quantile returns the q-quantile (0..1) of a *sorted* sample using
// linear interpolation.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// KDE is a Gaussian-kernel density estimate over a sample.
type KDE struct {
	sample    []float64
	bandwidth float64
}

// NewKDE builds an estimator. bandwidth <= 0 selects Silverman's rule of
// thumb, which is what MATLAB's ksdensity (used by the paper's kde.m)
// defaults to.
func NewKDE(sample []float64, bandwidth float64) (*KDE, error) {
	if len(sample) == 0 {
		return nil, fmt.Errorf("stats: empty sample for KDE")
	}
	if bandwidth <= 0 {
		s := Summarize(sample)
		sorted := append([]float64(nil), sample...)
		sort.Float64s(sorted)
		iqr := Quantile(sorted, 0.75) - Quantile(sorted, 0.25)
		sigma := s.Std
		if iqr > 0 && iqr/1.34 < sigma {
			sigma = iqr / 1.34
		}
		if sigma == 0 {
			sigma = 1
		}
		bandwidth = 0.9 * sigma * math.Pow(float64(len(sample)), -0.2)
	}
	cp := append([]float64(nil), sample...)
	return &KDE{sample: cp, bandwidth: bandwidth}, nil
}

// Density evaluates the estimated PDF at x.
func (k *KDE) Density(x float64) float64 {
	const invSqrt2Pi = 0.3989422804014327
	var sum float64
	for _, xi := range k.sample {
		u := (x - xi) / k.bandwidth
		sum += invSqrt2Pi * math.Exp(-0.5*u*u)
	}
	return sum / (float64(len(k.sample)) * k.bandwidth)
}

// Curve evaluates the PDF at n evenly spaced points across [lo, hi],
// returning (xs, densities) — one series of a Figure 7/8 plot.
func (k *KDE) Curve(lo, hi float64, n int) ([]float64, []float64) {
	if n < 2 {
		n = 2
	}
	xs := make([]float64, n)
	ys := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range xs {
		xs[i] = lo + float64(i)*step
		ys[i] = k.Density(xs[i])
	}
	return xs, ys
}

// BestThreshold searches for the decision threshold that maximizes
// decode accuracy when values below the threshold decode as 0 and values
// at or above it decode as 1. It returns the threshold and the training
// accuracy. This is the receiver's calibration step (the paper picks 178
// and 183 by inspecting the Figure 7/8 distributions).
func BestThreshold(class0, class1 []float64) (threshold float64, accuracy float64) {
	if len(class0) == 0 || len(class1) == 0 {
		return 0, 0
	}
	type point struct {
		v     float64
		label int
	}
	pts := make([]point, 0, len(class0)+len(class1))
	for _, v := range class0 {
		pts = append(pts, point{v, 0})
	}
	for _, v := range class1 {
		pts = append(pts, point{v, 1})
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].v < pts[j].v })

	total := float64(len(pts))
	// Sweep candidate thresholds between consecutive distinct values.
	// below0 counts class-0 points strictly below the candidate.
	best, bestAcc := pts[0].v, 0.0
	below0, below1 := 0, 0
	consider := func(th float64) {
		correct := float64(below0 + (len(class1) - below1))
		if acc := correct / total; acc > bestAcc {
			bestAcc, best = acc, th
		}
	}
	consider(pts[0].v) // everything decodes as 1
	for i := 0; i < len(pts); i++ {
		if pts[i].label == 0 {
			below0++
		} else {
			below1++
		}
		// Only cut between strictly distinct values: a threshold inside
		// a run of ties would misclassify the rest of the run, and the
		// running counts here don't account for that.
		if i+1 < len(pts) && pts[i+1].v == pts[i].v {
			continue
		}
		th := pts[i].v + 0.5
		if i+1 < len(pts) {
			th = (pts[i].v + pts[i+1].v) / 2
		}
		consider(th)
	}
	return best, bestAcc
}

// Accuracy scores guesses against truth bits.
func Accuracy(guess, truth []int) float64 {
	if len(guess) == 0 || len(guess) != len(truth) {
		return 0
	}
	correct := 0
	for i := range guess {
		if guess[i] == truth[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(guess))
}
