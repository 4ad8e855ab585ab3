package cpu

import (
	"testing"

	"repro/internal/branch"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/memsys"
	"repro/internal/noise"
	"repro/internal/undo"
)

// ffRig builds two identical machines, one with fast-forward forced off,
// so tests can assert the skipping core is cycle-for-cycle equivalent to
// the cycle-by-cycle reference.
func ffRig(t *testing.T, cfg Config, mkScheme func() undo.Scheme, nz noise.Model) (ff, ref *CPU) {
	t.Helper()
	mk := func() *CPU {
		h := memsys.MustNew(memsys.DefaultConfig(11), mem.NewMemory())
		return MustNew(cfg, h, branch.New(branch.DefaultConfig()), mkScheme(), nz)
	}
	ff = mk()
	ref = mk()
	ref.SetFastForward(false)
	return ff, ref
}

// ffWorkloads builds programs spanning every wakeup source: cache-miss
// latency (doneAt), fence drain, mispredicted-branch rollback stalls
// (retireBlocked), and plain back-to-back ALU work (no skippable gaps).
func ffWorkloads() map[string]*isa.Program {
	w := map[string]*isa.Program{}

	b := isa.NewBuilder()
	for i := 0; i < 6; i++ {
		// Distinct lines: every load is a long-latency memory miss.
		b.Const(1, int64(0x40000+i*4096)).Load(2, 1, 0).Add(3, 3, 2)
	}
	b.Halt()
	w["miss-chain"] = b.MustBuild()

	b = isa.NewBuilder()
	b.Const(1, 0x50000).Load(2, 1, 0).Fence().Load(3, 1, 8).Fence().AddI(4, 3, 1).Halt()
	w["fenced-loads"] = b.MustBuild()

	b = isa.NewBuilder()
	b.Const(1, 0x60000).
		Const(2, 1).
		Load(3, 1, 0). // slow condition input
		BranchEQ(3, 0, "skip").
		Load(4, 1, 4096). // transient on the mispredicted path
		Load(5, 1, 8192).
		Label("skip").
		AddI(6, 2, 7).
		Halt()
	w["mispredict-rollback"] = b.MustBuild()

	b = isa.NewBuilder()
	b.Const(1, 3)
	for i := 0; i < 40; i++ {
		b.Mul(1, 1, 1).AddI(1, 1, 1)
	}
	b.Halt()
	w["alu-dense"] = b.MustBuild()
	return w
}

// TestFastForwardMatchesCycleByCycle is the core equivalence gate: the
// skipping core must report exactly the cycle counts, retirement counts
// and architectural results of the reference core on every workload.
func TestFastForwardMatchesCycleByCycle(t *testing.T) {
	anySkipped := false
	for name, prog := range ffWorkloads() {
		ff, ref := ffRig(t, DefaultConfig(), func() undo.Scheme { return undo.NewCleanupSpec() }, noise.None{})
		if !ff.FastForward() {
			t.Fatalf("%s: silent noise should enable fast-forward by default", name)
		}
		stFF := ff.Run(prog)
		stRef := ref.Run(prog)
		if stFF.Cycles != stRef.Cycles {
			t.Errorf("%s: ff %d cycles, reference %d", name, stFF.Cycles, stRef.Cycles)
		}
		if stFF.Retired != stRef.Retired || stFF.Squashes != stRef.Squashes {
			t.Errorf("%s: retired/squashes diverge: %+v vs %+v", name, stFF, stRef)
		}
		for r := isa.Reg(1); r < 8; r++ {
			if ff.Reg(r) != ref.Reg(r) {
				t.Errorf("%s: r%d = %d, reference %d", name, r, ff.Reg(r), ref.Reg(r))
			}
		}
		if stRef.SkippedCycles != 0 || stRef.FastForwards != 0 {
			t.Errorf("%s: reference core skipped %d cycles", name, stRef.SkippedCycles)
		}
		if stFF.SkippedCycles > 0 {
			anySkipped = true
		}
	}
	if !anySkipped {
		t.Error("no workload exercised the fast-forward path")
	}
}

// TestFastForwardWatchdogDeadline pins the boundary where the next
// wakeup IS the watchdog deadline: a memory miss whose completion lies
// beyond a tiny MaxCycles budget. The skipping core must time out at
// exactly the reference core's cycle, not one cycle early or late.
func TestFastForwardWatchdogDeadline(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCycles = 20 // well under one memory-miss latency
	prog := isa.NewBuilder().
		Const(1, 0x70000).
		Load(2, 1, 0).
		Add(3, 2, 2).
		Halt().
		MustBuild()

	ff, ref := ffRig(t, cfg, func() undo.Scheme { return undo.NewCleanupSpec() }, noise.None{})
	stFF := ff.Run(prog)
	stRef := ref.Run(prog)
	if !stFF.TimedOut || !stRef.TimedOut {
		t.Fatalf("expected both cores to time out: ff=%v ref=%v", stFF.TimedOut, stRef.TimedOut)
	}
	if stFF.Cycles != stRef.Cycles {
		t.Fatalf("timeout cycle differs: ff %d, reference %d", stFF.Cycles, stRef.Cycles)
	}
	if ff.Cycle() != ref.Cycle() {
		t.Fatalf("post-timeout cycle counters differ: ff %d, reference %d", ff.Cycle(), ref.Cycle())
	}
}

// stallOnce is a deterministic interference model: its first
// consultation injects one fixed stall, later ones are silent. It does
// not implement Silent (its effect depends on being consulted), so
// tests opt the skipping core in explicitly — the stall-expiry wakeup
// still fires identically because the model's behaviour depends only on
// call order, which skipping preserves.
type stallOnce struct {
	fired bool
	d     int
}

func (s *stallOnce) Name() string    { return "stall-once" }
func (s *stallOnce) LoadJitter() int { return 0 }
func (s *stallOnce) InterferenceStall() int {
	if s.fired {
		return 0
	}
	s.fired = true
	return s.d
}

// TestFastForwardNoiseStallExpiry covers a stall expiring mid-skip: the
// interference stall gates the frontend while a miss is outstanding,
// and the skipping core must wake at the stall-expiry boundary exactly
// as the reference does (NoiseStall accounting included).
func TestFastForwardNoiseStallExpiry(t *testing.T) {
	prog := isa.NewBuilder().
		Const(1, 0x80000).
		Load(2, 1, 0).
		AddI(3, 2, 1).
		Halt().
		MustBuild()

	// The model is stateful, so each core needs its own instance (ffRig
	// would share one).
	h1 := memsys.MustNew(memsys.DefaultConfig(11), mem.NewMemory())
	ff := MustNew(DefaultConfig(), h1, branch.New(branch.DefaultConfig()), undo.NewCleanupSpec(), &stallOnce{d: 30})
	h2 := memsys.MustNew(memsys.DefaultConfig(11), mem.NewMemory())
	ref := MustNew(DefaultConfig(), h2, branch.New(branch.DefaultConfig()), undo.NewCleanupSpec(), &stallOnce{d: 30})
	ref.SetFastForward(false)

	if ff.FastForward() {
		t.Fatal("non-silent noise must not enable fast-forward automatically")
	}
	ff.SetFastForward(true)

	stFF := ff.Run(prog)
	stRef := ref.Run(prog)
	if stFF.Cycles != stRef.Cycles || stFF.NoiseStall != stRef.NoiseStall {
		t.Fatalf("ff {cycles %d, noise %d} != reference {cycles %d, noise %d}",
			stFF.Cycles, stFF.NoiseStall, stRef.Cycles, stRef.NoiseStall)
	}
	if stFF.NoiseStall == 0 {
		t.Fatal("workload never hit the interference stall")
	}
	if ff.Reg(3) != ref.Reg(3) {
		t.Fatalf("r3 = %d, reference %d", ff.Reg(3), ref.Reg(3))
	}
}

// TestBeginProgramAfterSkippedTimeout checks the TimedOut reset path: a
// run that fast-forwards straight into its watchdog must leave the core
// reusable, and the next healthy run must match the reference machine
// that suffered the same history.
func TestBeginProgramAfterSkippedTimeout(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCycles = 20
	hang := isa.NewBuilder().Const(1, 0x90000).Load(2, 1, 0).Add(3, 2, 2).Halt().MustBuild()
	healthy := isa.NewBuilder().Const(1, 5).AddI(1, 1, 2).Halt().MustBuild()

	ff, ref := ffRig(t, cfg, func() undo.Scheme { return undo.NewCleanupSpec() }, noise.None{})
	if st := ff.Run(hang); !st.TimedOut {
		t.Fatal("hang program should time out")
	}
	if st := ref.Run(hang); !st.TimedOut {
		t.Fatal("reference hang should time out")
	}
	stFF := ff.Run(healthy)
	stRef := ref.Run(healthy)
	if stFF.TimedOut || stRef.TimedOut {
		t.Fatal("healthy run inherited TimedOut")
	}
	if stFF.Cycles != stRef.Cycles || ff.Reg(1) != ref.Reg(1) {
		t.Fatalf("post-timeout run diverged: ff {%d cycles, r1=%d} vs reference {%d cycles, r1=%d}",
			stFF.Cycles, ff.Reg(1), stRef.Cycles, ref.Reg(1))
	}
	if ff.Reg(1) != 7 {
		t.Fatalf("r1 = %d, want 7", ff.Reg(1))
	}
}

// TestResetRestoresFreshRun checks rewinding a core to its
// just-constructed state: a dirtied core, restored from the states its
// parts saved at construction (core, hierarchy, backing memory,
// predictor — the parts a machine snapshot covers), must replay a
// fresh core's run exactly.
func TestResetRestoresFreshRun(t *testing.T) {
	h := memsys.MustNew(memsys.DefaultConfig(11), mem.NewMemory())
	pred := branch.New(branch.DefaultConfig())
	c := MustNew(DefaultConfig(), h, pred, undo.NewCleanupSpec(), noise.None{})
	prog := ffWorkloads()["mispredict-rollback"]
	coreSt, hierSt, predSt := c.SaveState(), h.SaveState(), pred.SaveState()
	memSt := h.Memory().Fork()

	first := c.Run(prog)
	c.Run(prog) // dirty it further
	c.RestoreState(coreSt)
	h.RestoreState(hierSt)
	h.Memory().Restore(memSt)
	pred.RestoreState(predSt)
	if c.Cycle() != 0 {
		t.Fatalf("cycle after restore = %d", c.Cycle())
	}
	again := c.Run(prog)
	if first.Cycles != again.Cycles || first.Retired != again.Retired || first.Squashes != again.Squashes {
		t.Fatalf("restored run %+v != fresh run %+v", again, first)
	}
}
