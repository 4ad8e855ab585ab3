package experiments

import "testing"

func TestMinimalSafeConstant(t *testing.T) {
	pts, err := MinimalSafeConstantChecked(9, 4, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("points %d", len(pts))
	}
	prev := 0
	for _, p := range pts {
		// The minimal closing constant equals the worst-case stall the
		// attacker can force (the binary search must find it exactly).
		if p.MinSafeConst != p.WorstStall {
			t.Errorf("loads=%d: min const %d != worst stall %d",
				p.Loads, p.MinSafeConst, p.WorstStall)
		}
		// And it grows with attacker strength: the defender cannot pick
		// a small constant without assuming a weak attacker.
		if p.MinSafeConst < prev {
			t.Errorf("min const not monotone at %d loads", p.Loads)
		}
		prev = p.MinSafeConst
		if p.OverheadAtConst <= 0 {
			t.Error("overhead estimate missing")
		}
	}
	if pts[0].MinSafeConst != 32 {
		t.Errorf("single-load minimal constant %d, want the 32-cycle worst case", pts[0].MinSafeConst)
	}
	if pts[3].MinSafeConst < 45 {
		t.Errorf("4-load minimal constant %d, want ≥45", pts[3].MinSafeConst)
	}
}
