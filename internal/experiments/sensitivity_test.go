package experiments

import "testing"

func TestNoiseRobustness(t *testing.T) {
	pts, err := whole(NoiseRobustnessWith(newRunner(t), 1, []float64{2, 10, 25}, 120))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points %d", len(pts))
	}
	// Accuracy decreases with noise for both variants.
	if pts[0].Accuracy < pts[2].Accuracy {
		t.Fatalf("no-ES accuracy not degrading: %.3f → %.3f", pts[0].Accuracy, pts[2].Accuracy)
	}
	if pts[0].AccuracyES < pts[2].AccuracyES {
		t.Fatalf("ES accuracy not degrading: %.3f → %.3f", pts[0].AccuracyES, pts[2].AccuracyES)
	}
	// At low noise both are near-perfect.
	if pts[0].Accuracy < 0.99 || pts[0].AccuracyES < 0.99 {
		t.Fatalf("low-noise accuracies %.3f/%.3f", pts[0].Accuracy, pts[0].AccuracyES)
	}
	// At high noise, the larger eviction-set difference is more robust —
	// the paper's §VI-D claim.
	if pts[2].AccuracyES <= pts[2].Accuracy {
		t.Fatalf("eviction sets not more robust at σ=25: %.3f vs %.3f",
			pts[2].AccuracyES, pts[2].Accuracy)
	}
}

func TestLatencyModelSensitivity(t *testing.T) {
	pts, err := whole(LatencyModelSensitivityWith(newRunner(t), 2, []int{8, 16}, []int{5, 10}))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("points %d", len(pts))
	}
	byKey := map[[2]int]float64{}
	for _, p := range pts {
		byKey[[2]int{p.InvFirst, p.RestoreFirst}] = p.Diff
	}
	// The channel persists even with a halved cleanup pipeline...
	if byKey[[2]int{8, 5}] < 10 {
		t.Fatalf("channel vanished at fast cleanup: %.1f cycles", byKey[[2]int{8, 5}])
	}
	// ...and widens monotonically with either anchor cost.
	if byKey[[2]int{16, 5}] <= byKey[[2]int{8, 5}] {
		t.Fatal("diff not increasing with invalidation cost")
	}
	if byKey[[2]int{8, 10}] <= byKey[[2]int{8, 5}] {
		t.Fatal("diff not increasing with restoration cost")
	}
	// The default model reproduces 32 exactly.
	if d := byKey[[2]int{16, 10}]; d != 32 {
		t.Fatalf("default anchors give %.1f, want 32", d)
	}
}
