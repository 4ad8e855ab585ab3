package unxpec

import (
	"math"
	"testing"

	"repro/internal/noise"
)

func TestAutoTuneSweep(t *testing.T) {
	pts, best, err := AutoTune(Options{Seed: 1, UseEvictionSets: true, Noise: noise.NewSystem(3)}, nil, 4, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("points %d", len(pts))
	}
	if best < 0 || best >= len(pts) {
		t.Fatalf("best index %d", best)
	}
	// The difference must grow with loads (eviction sets enabled).
	if pts[3].Diff <= pts[0].Diff {
		t.Fatalf("diff not growing: %v → %v", pts[0].Diff, pts[3].Diff)
	}
	// Rate must shrink as rounds lengthen... with the fixed overhead
	// the change is small, but capacity must be positive and the best
	// point must dominate.
	for _, p := range pts {
		if p.CapacityBps <= 0 {
			t.Fatalf("non-positive capacity at %d loads", p.Loads)
		}
		if p.CapacityBps > pts[best].CapacityBps {
			t.Fatal("best index does not maximize capacity")
		}
	}
}

func TestBinaryEntropy(t *testing.T) {
	if binaryEntropy(0.5) != 1 {
		t.Fatalf("H2(0.5) = %f", binaryEntropy(0.5))
	}
	if binaryEntropy(0) != 0 || binaryEntropy(1) != 0 {
		t.Fatal("H2 boundary values")
	}
	if h := binaryEntropy(0.11); math.Abs(h-0.4999) > 0.01 {
		t.Fatalf("H2(0.11) = %f, want ≈0.5", h)
	}
}
