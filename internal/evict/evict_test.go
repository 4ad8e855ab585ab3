package evict

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/memsys"
	"repro/internal/randmap"
)

// smallHier builds a scaled-down hierarchy so reductions stay fast:
// L1 8 sets × 4 ways, L2 64 sets × 8 ways.
func smallHier(t *testing.T, l1Policy cache.ReplacementPolicy, l2Mapper cache.IndexMapper) *memsys.Hierarchy {
	t.Helper()
	cfg := memsys.Config{
		L1I:         cache.Config{Name: "l1i", Sets: 16, Ways: 2, HitLatency: 1},
		L1D:         cache.Config{Name: "l1d", Sets: 8, Ways: 4, HitLatency: 2, Policy: l1Policy},
		L2:          cache.Config{Name: "l2", Sets: 64, Ways: 8, HitLatency: 16, Mapper: l2Mapper},
		MemLatency:  100,
		MSHREntries: 16,
	}
	return memsys.MustNew(cfg, mem.NewMemory())
}

func TestCongruentL1Arithmetic(t *testing.T) {
	const sets = 8
	target := mem.Addr(0x4440)
	lines := CongruentL1(target, sets, 6, 0)
	if len(lines) != 6 {
		t.Fatalf("got %d lines", len(lines))
	}
	for _, a := range lines {
		if a.SetIndex(sets) != target.SetIndex(sets) {
			t.Fatalf("%s not congruent with %s", a, target)
		}
		if a.Line() == target.Line() {
			t.Fatal("target in its own eviction set")
		}
	}
}

func TestEvictsDetectsCongruentSet(t *testing.T) {
	h := smallHier(t, nil, nil) // LRU L1, identity L2
	f := NewFinder(h)
	target := mem.Addr(0x10000)
	congr := CongruentL1(target, 8, 4, 0) // 4 = L1 ways
	if !f.Evicts(target, congr, L1) {
		t.Fatal("full congruent set failed to evict under LRU")
	}
	nonCongr := CongruentL1(target+64, 8, 4, target) // different set
	if f.Evicts(target, nonCongr, L1) {
		t.Fatal("non-congruent set reported as evicting")
	}
}

func TestEvictsUnderRandomReplacement(t *testing.T) {
	h := smallHier(t, cache.NewRandom(3), nil)
	f := NewFinder(h)
	f.Trials = 16
	target := mem.Addr(0x20000)
	// Twice the associativity: reliable eviction even under random
	// replacement.
	congr := CongruentL1(target, 8, 8, 0)
	if !f.Evicts(target, congr, L1) {
		t.Fatal("congruent superset failed to evict under random replacement")
	}
}

func TestFindEvictionSetIdentityL1(t *testing.T) {
	h := smallHier(t, nil, nil)
	f := NewFinder(h)
	target := mem.Addr(0x30000)
	pool := Pool(0x40000, 8*4*3) // 3× L1 size in lines
	set, err := f.FindEvictionSet(target, pool, 4, L1)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 4 {
		t.Fatalf("reduced to %d lines, want exactly associativity 4 under LRU", len(set))
	}
	for _, a := range set {
		if a.SetIndex(8) != target.SetIndex(8) {
			t.Fatalf("reduced set contains non-congruent %s", a)
		}
	}
}

func TestFindEvictionSetRandomizedL2(t *testing.T) {
	// The headline capability: find L2-congruent lines through timing
	// alone, despite CEASER-style randomized indexing.
	h := smallHier(t, nil, randmap.NewFeistel(0xabcd))
	f := NewFinder(h)
	f.Trials = 3
	target := mem.Addr(0x50000)
	pool := Pool(0x100000, 64*8*3) // 3× L2 size in lines
	set, err := f.FindEvictionSet(target, pool, 8, L2)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) > 24 {
		t.Fatalf("reduction left %d lines, want near associativity 8", len(set))
	}
	// Verify congruence against the defender-side oracle.
	mapper := randmap.NewFeistel(0xabcd)
	want := mapper.MapIndex(target, 64)
	congruent := 0
	for _, a := range set {
		if mapper.MapIndex(a, 64) == want {
			congruent++
		}
	}
	if congruent < 8 {
		t.Fatalf("only %d/%d lines in the reduced set are truly congruent", congruent, len(set))
	}
}

func TestFindEvictionSetFailsOnTinyPool(t *testing.T) {
	h := smallHier(t, nil, nil)
	f := NewFinder(h)
	if _, err := f.FindEvictionSet(0x1000, Pool(0x2000, 2), 4, L1); err == nil {
		t.Fatal("tiny pool should fail")
	}
}

func TestPrimeFillsTargetSet(t *testing.T) {
	h := smallHier(t, cache.NewRandom(9), nil)
	f := NewFinder(h)
	target := mem.Addr(0x60000)
	lines := CongruentL1(target, 8, 4, 0)
	f.Prime(lines)
	occ := 0
	for _, a := range lines {
		if h.L1D().Probe(a) {
			occ++
		}
	}
	if occ < 3 {
		t.Fatalf("only %d/4 primed lines resident", occ)
	}
	// Every L1 way of the target set is now occupied: the next fill
	// into the set must evict — the property unXpec needs.
	if h.L1D().SetOccupancy(target) != 4 {
		t.Fatalf("set occupancy %d, want full", h.L1D().SetOccupancy(target))
	}
	res := h.Read(target, true, 1, 0)
	if !res.HasL1Victim {
		t.Fatal("fill into a primed set did not evict — restoration would not trigger")
	}
}

func TestPoolGeneration(t *testing.T) {
	p := Pool(0x123, 4)
	if len(p) != 4 || p[0] != 0x100 || p[1] != 0x140 {
		t.Fatalf("pool %v", p)
	}
}

func TestFinderCounters(t *testing.T) {
	h := smallHier(t, nil, nil)
	f := NewFinder(h)
	f.Evicts(0x1000, Pool(0x2000, 4), L1)
	if f.Tests() != 1 || f.Accesses() == 0 {
		t.Fatalf("counters tests=%d accesses=%d", f.Tests(), f.Accesses())
	}
}

func TestLevelString(t *testing.T) {
	if L1.String() != "L1" || L2.String() != "L2" {
		t.Fatal("level names")
	}
}
