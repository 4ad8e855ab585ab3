package cpu

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/undo"
)

// interpMem adapts mem.Memory to the reference interpreter's view.
type interpMem struct{ m *mem.Memory }

func (a interpMem) ReadWord(addr isa.Addr64) uint64     { return a.m.ReadWord(mem.Addr(addr)) }
func (a interpMem) WriteWord(addr isa.Addr64, v uint64) { a.m.WriteWord(mem.Addr(addr), v) }

func TestDivArithmetic(t *testing.T) {
	c := rig(t, undo.NewUnsafe())
	p := isa.NewBuilder().
		Const(1, 84).
		Const(2, 2).
		Div(3, 1, 2).
		AddI(4, 3, 1).
		Halt().
		MustBuild()
	st := c.Run(p)
	if st.TimedOut {
		t.Fatal("timed out")
	}
	if c.Reg(3) != 42 || c.Reg(4) != 43 {
		t.Fatalf("r3=%d r4=%d, want 42 43", c.Reg(3), c.Reg(4))
	}
	if st.Squashes != 0 {
		t.Fatalf("clean div squashed %d times", st.Squashes)
	}
}

func TestDivFaultHaltsAtFault(t *testing.T) {
	c := rig(t, undo.NewUnsafe())
	p := isa.NewBuilder().
		Const(1, 42).
		Const(3, 7).
		Div(3, 1, 0). // r0 divisor: always faults
		Const(4, 99). // transient fall-through, must not commit
		Halt().
		MustBuild()
	st := c.Run(p)
	if st.TimedOut {
		t.Fatal("timed out")
	}
	if c.Reg(3) != 7 {
		t.Fatalf("faulting div wrote rd: r3=%d", c.Reg(3))
	}
	if c.Reg(4) != 0 {
		t.Fatalf("post-fault instruction committed: r4=%d", c.Reg(4))
	}
	if st.Squashes != 1 {
		t.Fatalf("fault should squash exactly once, got %d", st.Squashes)
	}
}

func TestDivFaultMatchesReferenceInterpreter(t *testing.T) {
	// Architectural equivalence: the out-of-order core with a divide
	// fault must land in the same register state as the in-order
	// reference interpreter.
	p := isa.NewBuilder().
		Const(1, 100).
		Const(2, 0).
		AddI(5, 0, 3).
		Div(6, 1, 2).
		AddI(7, 5, 10).
		Halt().
		MustBuild()
	c := rig(t, undo.NewUnsafe())
	c.Run(p)
	ref := isa.Interpret(p, interpMem{c.Hierarchy().Memory()}, [isa.NumRegs]uint64{}, 0)
	for r := isa.Reg(1); r < isa.NumRegs; r++ {
		if c.Reg(r) != ref.Regs[r] {
			t.Errorf("r%d: core %d, interp %d", r, c.Reg(r), ref.Regs[r])
		}
	}
}

func TestDivFaultTransientLoadRollsBack(t *testing.T) {
	// The fall-through path after a faulting div is an exception-based
	// transient window: a load fetched down it executes and touches the
	// cache, and an undo scheme must roll that footprint back with a
	// measurable stall — the rollback residue the trap-gate channel
	// measures.
	prog := isa.NewBuilder().
		Const(1, 10).
		Const(2, 0x5000).
		Div(3, 1, 0).  // faults
		Load(4, 2, 0). // transient miss: installs a line
		Halt().
		MustBuild()

	cUnsafe := rig(t, undo.NewUnsafe())
	stU := cUnsafe.Run(prog)
	cClean := rig(t, undo.NewCleanupSpec())
	stC := cClean.Run(prog)

	if stU.Squashes != 1 || stC.Squashes != 1 {
		t.Fatalf("squashes unsafe=%d cleanup=%d, want 1 each", stU.Squashes, stC.Squashes)
	}
	if stC.LastCleanupStall == 0 {
		t.Fatal("cleanupspec rollback after a divide fault should stall")
	}
	if stC.Cycles <= stU.Cycles {
		t.Fatalf("rollback residue missing: cleanup %d cycles, unsafe %d",
			stC.Cycles, stU.Cycles)
	}
}

func TestDivShadowClearsWhenDivIssuesClean(t *testing.T) {
	// A load younger than a pending div is speculative (the div could
	// fault); once the div issues with a non-zero divisor the load's
	// speculative mark must clear so the line survives later squashes.
	c := rig(t, undo.NewCleanupSpec())
	p := isa.NewBuilder().
		Const(1, 20).
		Const(2, 4).
		Const(5, 0x6000).
		Div(3, 1, 2). // never faults
		Load(6, 5, 0).
		Halt().
		MustBuild()
	st := c.Run(p)
	if st.TimedOut || st.Squashes != 0 {
		t.Fatalf("clean run: timeout=%v squashes=%d", st.TimedOut, st.Squashes)
	}
	if c.Reg(3) != 5 {
		t.Fatalf("r3=%d, want 5", c.Reg(3))
	}
}

func TestDivFaultStateRoundTrip(t *testing.T) {
	// Save/restore across the trap drain window must reproduce the
	// same final cycle count.
	p := isa.NewBuilder().
		Const(1, 9).
		Div(2, 1, 0).
		Halt().
		MustBuild()
	c := rig(t, undo.NewCleanupSpec())
	c.BeginProgram(p)
	for i := 0; i < 3; i++ {
		if c.Step() {
			t.Fatal("halted too early")
		}
	}
	st := c.SaveState()
	for !c.Step() {
	}
	want := c.Cycle()
	c.RestoreState(st)
	for !c.Step() {
	}
	if got := c.Cycle(); got != want {
		t.Fatalf("replay from snapshot: %d cycles, want %d", got, want)
	}
}
