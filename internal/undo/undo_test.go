package undo

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/memsys"
)

func newHier(t *testing.T) *memsys.Hierarchy {
	t.Helper()
	return memsys.MustNew(memsys.DefaultConfig(7), mem.NewMemory())
}

// installTransient loads addr speculatively and returns the transient
// record the CPU would build.
func installTransient(h *memsys.Hierarchy, addr mem.Addr, epoch uint64) TransientLoad {
	res := h.Read(addr, true, epoch, 0)
	return TransientLoad{
		LineAddr:    addr.Line(),
		InstalledL1: res.InstalledL1,
		InstalledL2: res.InstalledL2,
		HasVictim:   res.HasL1Victim && !res.L1VictimSpec,
		VictimAddr:  res.L1VictimAddr,
	}
}

func TestCleanupSpecRemovesFootprints(t *testing.T) {
	h := newHier(t)
	s := NewCleanupSpec()
	tl := installTransient(h, 0x4000, 1)
	res := s.OnSquash(h, SquashContext{Epoch: 1, Transients: []TransientLoad{tl}})
	if res.Invalidated != 1 {
		t.Fatalf("invalidated %d, want 1", res.Invalidated)
	}
	in1, in2 := h.Probe(0x4000)
	if in1 || in2 {
		t.Fatal("transient footprint survived rollback")
	}
}

func TestCleanupSpecCalibratedStall(t *testing.T) {
	// One transient install, no eviction: the paper's 22-cycle delta.
	h := newHier(t)
	s := NewCleanupSpec()
	tl := installTransient(h, 0x4000, 1)
	res := s.OnSquash(h, SquashContext{Epoch: 1, Transients: []TransientLoad{tl}})
	if res.StallCycles != 22 {
		t.Fatalf("stall %d cycles, calibrated for 22 (Figure 3, one load)", res.StallCycles)
	}
}

func TestCleanupSpecStallWithRestoration(t *testing.T) {
	// One install + one restoration: the paper's 32-cycle delta.
	m := DefaultLatencyModel()
	if got := m.stallFor(1, 1, 0); got != 32 {
		t.Fatalf("stall(1 inv, 1 rest) = %d, calibrated for 32 (Figure 6, one load)", got)
	}
}

func TestStallGrowthShapes(t *testing.T) {
	m := DefaultLatencyModel()
	// Without eviction sets the difference grows slowly (Fig 3:
	// ~22 → ~25 over 8 loads).
	lo, hi := m.stallFor(1, 0, 0), m.stallFor(8, 0, 0)
	if lo != 22 || hi < 23 || hi > 27 {
		t.Fatalf("invalidation-only growth %d → %d, want 22 → ~25", lo, hi)
	}
	// With eviction sets it grows steeply (Fig 6: ~32 → ~64).
	loES, hiES := m.stallFor(1, 1, 0), m.stallFor(8, 8, 0)
	if loES != 32 || hiES < 58 || hiES > 70 {
		t.Fatalf("restoration growth %d → %d, want 32 → ~64", loES, hiES)
	}
	// Monotone in both arguments.
	for n := 1; n < 8; n++ {
		if m.stallFor(n+1, 0, 0) < m.stallFor(n, 0, 0) {
			t.Fatal("stall not monotone in invalidations")
		}
		if m.stallFor(n, n+1, 0) < m.stallFor(n, n, 0) {
			t.Fatal("stall not monotone in restorations")
		}
	}
}

func TestCleanupSpecZeroWorkZeroStall(t *testing.T) {
	h := newHier(t)
	s := NewCleanupSpec()
	res := s.OnSquash(h, SquashContext{Epoch: 1})
	if res.StallCycles != 0 {
		t.Fatalf("secret-0 case must stall 0 cycles, got %d", res.StallCycles)
	}
	st := s.Stats()
	if st.CleanupsEmptyWork != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestCleanupSpecRestoresVictim(t *testing.T) {
	h := newHier(t)
	s := NewCleanupSpec()
	// Fill one L1 set completely with honest lines.
	cfg := h.Config().L1D
	base := mem.Addr(0x100000)
	set := base.SetIndex(cfg.Sets)
	victims := make([]mem.Addr, cfg.Ways)
	for i := range victims {
		victims[i] = mem.FromSetTag(cfg.Sets, set, base.Tag(cfg.Sets)+uint64(i))
		h.Read(victims[i], false, 0, 0)
	}
	// Transient load into the same set must evict one of them.
	trans := mem.FromSetTag(cfg.Sets, set, base.Tag(cfg.Sets)+uint64(cfg.Ways))
	tl := installTransient(h, trans, 2)
	if !tl.HasVictim {
		t.Fatal("expected a victim")
	}
	if h.L1D().Probe(tl.VictimAddr) {
		t.Fatal("victim should be out of L1 before rollback")
	}
	res := s.OnSquash(h, SquashContext{Epoch: 2, Transients: []TransientLoad{tl}})
	if res.Restored != 1 {
		t.Fatalf("restored %d, want 1", res.Restored)
	}
	if !h.L1D().Probe(tl.VictimAddr) {
		t.Fatal("victim not restored to L1")
	}
	if h.L1D().Probe(trans) || h.L2().Probe(trans) {
		t.Fatal("transient line survived")
	}
	// Cache state is exactly as before the transient load.
	for _, v := range victims {
		if !h.L1D().Probe(v) {
			t.Fatalf("honest line %s missing after rollback", v)
		}
	}
}

func TestCleanupSpecRestoreDisabledAblation(t *testing.T) {
	h := newHier(t)
	s := NewCleanupSpec()
	s.RestoreEnabled = false
	cfg := h.Config().L1D
	base := mem.Addr(0x200000)
	set := base.SetIndex(cfg.Sets)
	for i := 0; i < cfg.Ways; i++ {
		h.Read(mem.FromSetTag(cfg.Sets, set, base.Tag(cfg.Sets)+uint64(i)), false, 0, 0)
	}
	tl := installTransient(h, mem.FromSetTag(cfg.Sets, set, base.Tag(cfg.Sets)+99), 3)
	res := s.OnSquash(h, SquashContext{Epoch: 3, Transients: []TransientLoad{tl}})
	if res.Restored != 0 {
		t.Fatal("ablated restoration still ran")
	}
	if res.StallCycles != 22 {
		t.Fatalf("stall %d, want invalidation-only 22", res.StallCycles)
	}
}

func TestUnsafeLeavesFootprint(t *testing.T) {
	h := newHier(t)
	s := NewUnsafe()
	tl := installTransient(h, 0x4000, 1)
	res := s.OnSquash(h, SquashContext{Epoch: 1, Transients: []TransientLoad{tl}})
	if res.StallCycles != 0 || res.Invalidated != 0 {
		t.Fatalf("unsafe baseline must do nothing: %+v", res)
	}
	in1, in2 := h.Probe(0x4000)
	if !in1 || !in2 {
		t.Fatal("unsafe baseline should leave the footprint — that is the Spectre channel")
	}
	// And the mark is cleared so a cross-agent probe now hits.
	other, err := memsys.NewShared(h.Config(), h.Memory(), nil, h.L2(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := other.Read(0x4000, false, 0, 0); got.Dummy {
		t.Fatal("unsafe baseline left a speculative mark behind")
	}
}

func TestConstantTimeRelaxedFloorsStall(t *testing.T) {
	h := newHier(t)
	s := NewConstantTime(45, Relaxed)
	// No work: still stalls the full constant.
	res := s.OnSquash(h, SquashContext{Epoch: 1})
	if res.StallCycles != 45 {
		t.Fatalf("empty squash stalled %d, want 45", res.StallCycles)
	}
	// Work below the constant: still the constant.
	tl := installTransient(h, 0x4000, 2)
	res = s.OnSquash(h, SquashContext{Epoch: 2, Transients: []TransientLoad{tl}})
	if res.StallCycles != 45 {
		t.Fatalf("small squash stalled %d, want 45", res.StallCycles)
	}
}

func TestConstantTimeRelaxedExceedsWhenNeeded(t *testing.T) {
	h := newHier(t)
	s := NewConstantTime(25, Relaxed)
	// Build lots of rollback work: many installs each with victims.
	cfg := h.Config().L1D
	var tls []TransientLoad
	for set := 0; set < 8; set++ {
		base := mem.FromSetTag(cfg.Sets, uint64(set), 50)
		for i := 0; i < cfg.Ways; i++ {
			h.Read(mem.FromSetTag(cfg.Sets, uint64(set), 50+uint64(i)), false, 0, 0)
		}
		tls = append(tls, installTransient(h, base+mem.Addr(cfg.Sets*cfg.Ways*64*2), 3))
		_ = base
	}
	res := s.OnSquash(h, SquashContext{Epoch: 3, Transients: tls})
	if res.StallCycles <= 25 {
		t.Fatalf("relaxed mode must exceed the constant for big rollbacks, stalled %d", res.StallCycles)
	}
}

func TestConstantTimeStrictLeavesResidual(t *testing.T) {
	h := newHier(t)
	s := NewConstantTime(25, Strict) // tiny budget
	var tls []TransientLoad
	for i := 0; i < 8; i++ {
		tls = append(tls, installTransient(h, mem.Addr(0x40000+i*4096), 4))
	}
	res := s.OnSquash(h, SquashContext{Epoch: 4, Transients: tls})
	if res.StallCycles != 25 {
		t.Fatalf("strict mode stalled %d, want exactly 25", res.StallCycles)
	}
	if res.Residual == 0 {
		t.Fatal("strict mode with insufficient budget must leave residual state")
	}
	// Residual lines are still in the cache — the re-exploitable leak.
	leaked := 0
	for _, tl := range tls {
		if in1, _ := h.Probe(tl.LineAddr); in1 {
			leaked++
		}
	}
	if leaked == 0 {
		t.Fatal("residual count reported but no lines actually leaked")
	}
}

func TestConstantTimeStrictCompletesWithBudget(t *testing.T) {
	h := newHier(t)
	s := NewConstantTime(500, Strict)
	tl := installTransient(h, 0x4000, 5)
	res := s.OnSquash(h, SquashContext{Epoch: 5, Transients: []TransientLoad{tl}})
	if res.Residual != 0 || res.Invalidated != 1 {
		t.Fatalf("big budget should complete: %+v", res)
	}
	if in1, in2 := h.Probe(0x4000); in1 || in2 {
		t.Fatal("footprint survived despite sufficient budget")
	}
}

func TestFuzzyTimeAddsBoundedDelay(t *testing.T) {
	h := newHier(t)
	s := NewFuzzyTime(40, 99)
	seen := map[int]bool{}
	for i := 0; i < 60; i++ {
		tl := installTransient(h, mem.Addr(0x8000+i*4096), uint64(i))
		res := s.OnSquash(h, SquashContext{Epoch: uint64(i), Transients: []TransientLoad{tl}})
		// Genuine rollback is 22; padding draws from [0, 40-22).
		extra := res.StallCycles - 22
		if extra < 0 || extra >= 18 {
			t.Fatalf("dummy delay %d outside [0,18)", extra)
		}
		seen[extra] = true
	}
	if len(seen) < 5 {
		t.Fatalf("dummy delays not varying: %d distinct values", len(seen))
	}
	// Empty rollbacks get padded from the full range, so a no-work
	// squash is no longer a clean zero.
	sawPositive := false
	for i := 0; i < 20; i++ {
		res := s.OnSquash(h, SquashContext{Epoch: uint64(1000 + i)})
		if res.StallCycles < 0 || res.StallCycles >= 40 {
			t.Fatalf("empty-squash stall %d outside [0,40)", res.StallCycles)
		}
		if res.StallCycles > 0 {
			sawPositive = true
		}
	}
	if !sawPositive {
		t.Fatal("empty squashes never padded")
	}
}

func TestInvisibleLite(t *testing.T) {
	s := NewInvisibleLite()
	if s.VisibleSpeculation() {
		t.Fatal("invisible scheme must hide speculation")
	}
	if s.CommitLoadPenalty() <= 0 {
		t.Fatal("invisible scheme must pay a commit penalty — that is its cost model")
	}
	h := newHier(t)
	res := s.OnSquash(h, SquashContext{Epoch: 1})
	if res.StallCycles != 0 {
		t.Fatal("invisible squash should be free")
	}
}

func TestSchemeNames(t *testing.T) {
	for _, tc := range []struct {
		s    Scheme
		want string
	}{
		{NewCleanupSpec(), "cleanupspec"},
		{NewUnsafe(), "unsafe-baseline"},
		{NewConstantTime(45, Relaxed), "cleanupspec-const45-relaxed"},
		{NewConstantTime(25, Strict), "cleanupspec-const25-strict"},
		{NewFuzzyTime(30, 1), "cleanupspec-fuzzy30"},
		{NewInvisibleLite(), "invisible-lite"},
	} {
		if got := tc.s.Name(); got != tc.want {
			t.Errorf("name %q, want %q", got, tc.want)
		}
	}
}

func TestStatsAccumulation(t *testing.T) {
	h := newHier(t)
	s := NewCleanupSpec()
	tl := installTransient(h, 0x4000, 1)
	s.OnSquash(h, SquashContext{Epoch: 1, Transients: []TransientLoad{tl}})
	s.OnSquash(h, SquashContext{Epoch: 2})
	st := s.Stats()
	if st.Squashes != 2 || st.CleanupsWithWork != 1 || st.CleanupsEmptyWork != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.MaxStall != 22 || st.TotalStallCycles != 22 {
		t.Fatalf("stall stats %+v", st)
	}
}
