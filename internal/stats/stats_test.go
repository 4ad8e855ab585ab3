package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("summary %+v", s)
	}
	if !almost(s.Std, math.Sqrt(2), 1e-9) {
		t.Fatalf("std %f", s.Std)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Fatal("empty summary")
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	cases := map[float64]float64{0: 10, 1: 40, 0.5: 25, 1.0 / 3: 20}
	for q, want := range cases {
		if got := Quantile(sorted, q); !almost(got, want, 1e-9) {
			t.Errorf("Q(%f) = %f, want %f", q, got, want)
		}
	}
	if Quantile(nil, 0.5) != 0 {
		t.Fatal("empty quantile")
	}
}

func TestMean(t *testing.T) {
	if Mean([]float64{2, 4}) != 3 {
		t.Fatal("mean")
	}
	if Mean(nil) != 0 {
		t.Fatal("empty mean")
	}
}

func TestKDEIntegratesToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sample := make([]float64, 500)
	for i := range sample {
		sample[i] = rng.NormFloat64()*10 + 170
	}
	k, err := NewKDE(sample, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Numeric integral over a wide range.
	var integral float64
	const lo, hi, n = 100.0, 240.0, 2000
	step := (hi - lo) / n
	for i := 0; i < n; i++ {
		integral += k.Density(lo+float64(i)*step) * step
	}
	if !almost(integral, 1, 0.02) {
		t.Fatalf("KDE integral %f, want ≈1", integral)
	}
}

func TestKDEPeaksNearMean(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sample := make([]float64, 1000)
	for i := range sample {
		sample[i] = rng.NormFloat64()*5 + 100
	}
	k, _ := NewKDE(sample, 0)
	xs, ys := k.Curve(80, 120, 200)
	peak := 0
	for i := range ys {
		if ys[i] > ys[peak] {
			peak = i
		}
	}
	if !almost(xs[peak], 100, 2) {
		t.Fatalf("KDE peak at %f, want ≈100", xs[peak])
	}
}

func TestKDEBimodalSeparation(t *testing.T) {
	// Two modes like Figure 7: secret-0 around 160, secret-1 around 182.
	rng := rand.New(rand.NewSource(3))
	var sample []float64
	for i := 0; i < 500; i++ {
		sample = append(sample, rng.NormFloat64()*4+160)
		sample = append(sample, rng.NormFloat64()*4+182)
	}
	k, _ := NewKDE(sample, 2)
	valley := k.Density(171)
	if k.Density(160) <= valley || k.Density(182) <= valley {
		t.Fatal("bimodal structure not visible in KDE")
	}
}

func TestKDEEmptySample(t *testing.T) {
	if _, err := NewKDE(nil, 0); err == nil {
		t.Fatal("empty sample accepted")
	}
}

func TestKDEConstantSample(t *testing.T) {
	k, err := NewKDE([]float64{5, 5, 5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A zero bandwidth would make the density at the constant infinite
	// or NaN.
	if d := k.Density(5); math.IsInf(d, 0) || math.IsNaN(d) || d <= 0 {
		t.Fatalf("density %v at the constant, want finite and positive", d)
	}
	if k.Density(5) <= k.Density(50) {
		t.Fatal("density should peak at the constant")
	}
}

func TestBestThresholdSeparable(t *testing.T) {
	c0 := []float64{150, 155, 160, 158}
	c1 := []float64{180, 185, 190, 178}
	th, acc := BestThreshold(c0, c1)
	if acc != 1 {
		t.Fatalf("separable classes scored %f", acc)
	}
	if th <= 160 || th > 178 {
		t.Fatalf("threshold %f outside the gap", th)
	}
}

func TestBestThresholdOverlapping(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var c0, c1 []float64
	for i := 0; i < 2000; i++ {
		c0 = append(c0, rng.NormFloat64()*10+160)
		c1 = append(c1, rng.NormFloat64()*10+182)
	}
	th, acc := BestThreshold(c0, c1)
	// Theoretical optimum: midpoint 171, accuracy Φ(1.1) ≈ 0.864.
	if !almost(th, 171, 4) {
		t.Fatalf("threshold %f, want ≈171", th)
	}
	if !almost(acc, 0.864, 0.03) {
		t.Fatalf("accuracy %f, want ≈0.864", acc)
	}
}

func TestBestThresholdDegenerate(t *testing.T) {
	if _, acc := BestThreshold(nil, []float64{1}); acc != 0 {
		t.Fatal("empty class should score 0")
	}
	// Inverted classes: accuracy can never drop below 0.5 because the
	// all-one decode is always a candidate.
	_, acc := BestThreshold([]float64{100}, []float64{50})
	if acc < 0.5 {
		t.Fatalf("accuracy %f below trivial decoder", acc)
	}
}

func TestBestThresholdPropertyAccuracyAtLeastMajority(t *testing.T) {
	f := func(a, b []float64) bool {
		if len(a) == 0 || len(b) == 0 {
			return true
		}
		_, acc := BestThreshold(a, b)
		maj := math.Max(float64(len(a)), float64(len(b))) / float64(len(a)+len(b))
		return acc >= maj-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAccuracy(t *testing.T) {
	g := []int{1, 0, 1, 1}
	tr := []int{1, 1, 1, 0}
	if got := Accuracy(g, tr); got != 0.5 {
		t.Fatalf("accuracy %f", got)
	}
	if Accuracy(nil, nil) != 0 || Accuracy(g, g[:2]) != 0 {
		t.Fatal("degenerate accuracy")
	}
}
