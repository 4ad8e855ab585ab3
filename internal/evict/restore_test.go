package evict

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/memsys"
)

// findingRun drives one full eviction-set search and returns the found
// set plus the finder's experiment counters.
func findingRun(t *testing.T, f *Finder) ([]mem.Addr, int, int) {
	t.Helper()
	target := mem.Addr(0x10000)
	pool := Pool(0x40000, 96) // 3× the 8-set × 4-way L1, in lines
	set, err := f.FindEvictionSet(target, pool, 4, L1)
	if err != nil {
		t.Fatalf("FindEvictionSet: %v", err)
	}
	return set, f.Tests(), f.Accesses()
}

// TestFinderResetMatchesFresh reruns a search after rewinding the
// experiment — the hierarchy restored to the state it saved at
// construction, and a new finder with the same tunables (a finder's own
// state is just its virtual clock and counters) — and requires the
// found set, test count and access count to be bit-identical to a fresh
// finder on a fresh hierarchy, including under random replacement,
// where the policy's RNG position has to rewind.
func TestFinderResetMatchesFresh(t *testing.T) {
	cases := []struct {
		name   string
		policy func() cache.ReplacementPolicy
	}{
		{"lru", func() cache.ReplacementPolicy { return nil }},
		{"random", func() cache.ReplacementPolicy { return cache.NewRandom(7) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			newFinder := func(h *memsys.Hierarchy) *Finder {
				f := NewFinder(h)
				if tc.name == "random" {
					f.Trials = 9
					f.Passes = 16
				}
				return f
			}
			h := smallHier(t, tc.policy(), nil)
			st := h.SaveState()
			set1, tests1, acc1 := findingRun(t, newFinder(h))

			h.RestoreState(st)
			set2, tests2, acc2 := findingRun(t, newFinder(h))

			fh := smallHier(t, tc.policy(), nil)
			set3, tests3, acc3 := findingRun(t, newFinder(fh))

			// The found set and the counters are robust to victim
			// choice; the L1D's hit/miss/eviction counts are not, so
			// they pin the rewound replacement state.
			if got, want := h.L1D().Stats(), fh.L1D().Stats(); got != want {
				t.Errorf("restored run L1D stats %+v != fresh %+v", got, want)
			}

			for i := range set3 {
				if i >= len(set2) || set2[i] != set3[i] {
					t.Fatalf("restored run set %v != fresh finder set %v", set2, set3)
				}
			}
			for i := range set3 {
				if i >= len(set1) || set1[i] != set3[i] {
					t.Fatalf("first run set %v != fresh finder set %v", set1, set3)
				}
			}
			if tests2 != tests3 || acc2 != acc3 {
				t.Errorf("restored run counters (%d tests, %d accesses) != fresh (%d, %d)",
					tests2, acc2, tests3, acc3)
			}
			if tests1 != tests3 || acc1 != acc3 {
				t.Errorf("first run counters (%d tests, %d accesses) != fresh (%d, %d)",
					tests1, acc1, tests3, acc3)
			}
		})
	}
}
