package experiments

import "testing"

func TestCrossCoreStudyMatrix(t *testing.T) {
	rows, err := whole(CrossCoreStudyWith(newRunner(t), 3, 600, 250))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows %d", len(rows))
	}
	byKey := map[[2]interface{}]CrossCoreRow{}
	for _, r := range rows {
		byKey[[2]interface{}{r.Machine, r.Secret}] = r
	}
	// Only the unsafe machine with secret=1 leaks.
	if !byKey[[2]interface{}{"unsafe", 1}].Leaks {
		t.Fatal("unsafe secret=1 should leak")
	}
	for _, k := range [][2]interface{}{{"unsafe", 0}, {"cleanupspec", 0}, {"cleanupspec", 1}} {
		if byKey[k].Leaks {
			t.Fatalf("%v should be safe", k)
		}
	}
	// CleanupSpec with secret=1 must actually have served dummy misses
	// (the defense did work, not just luck).
	if byKey[[2]interface{}{"cleanupspec", 1}].DummyMisses == 0 {
		t.Fatal("no dummy misses served — prober never probed in-window")
	}
	// All victims mis-speculated comparably.
	for _, r := range rows {
		if r.VictimSquash < 20 {
			t.Fatalf("%s/%d: only %d squashes", r.Machine, r.Secret, r.VictimSquash)
		}
	}
}

func TestInterferenceStudy(t *testing.T) {
	rows, err := whole(InterferenceStudyWith(newRunner(t), 4, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows %d", len(rows))
	}
	for _, r := range rows {
		if !r.Leaks {
			t.Errorf("%s should leak via MSHR contention (diff %.1f)", r.Scheme, r.Diff)
		}
	}
	// CleanupSpec's diff includes its rollback delta on top of pure
	// contention.
	byName := map[string]float64{}
	for _, r := range rows {
		byName[r.Scheme] = r.Diff
	}
	if byName["cleanupspec"] <= byName["invisible-lite"] {
		t.Errorf("cleanupspec %.1f should exceed invisible %.1f",
			byName["cleanupspec"], byName["invisible-lite"])
	}
}
