package absint

import (
	"strings"
	"testing"

	"repro/internal/isa"
)

const (
	regionBase = 0x100000
	secretBase = DefaultSecretBase
	probeBase  = 0x300000
)

func analyze(t *testing.T, p *isa.Program) Result {
	t.Helper()
	return Analyze(p, Options{})
}

func wantVerdict(t *testing.T, p *isa.Program, want Verdict) Result {
	t.Helper()
	res := analyze(t, p)
	if res.Verdict != want {
		t.Fatalf("verdict %s, want %s\n%s\nprogram:\n%s",
			res.Verdict, want, res.Summary(), p.Disassemble())
	}
	return res
}

func TestBenignProgramNoLeak(t *testing.T) {
	p := isa.NewBuilder().
		Const(9, regionBase).
		Const(1, 7).
		Const(2, 5).
		Add(3, 1, 2).
		Store(9, 0, 3).
		Load(4, 9, 0).
		Mul(5, 4, 1).
		Halt().
		MustBuild()
	res := wantVerdict(t, p, NoLeak)
	if res.Truncated {
		t.Fatal("benign program should explore exhaustively")
	}
}

func TestArchProbeTransmitLeaks(t *testing.T) {
	// The classic transmitter, architecturally: read a secret word,
	// mask it, scale it to a probe stride, load through it.
	p := isa.NewBuilder().
		Const(12, secretBase).
		Const(13, 7).
		Const(14, probeBase).
		Load(1, 12, 0).
		And(2, 1, 13).
		ShlI(3, 2, 12).
		Add(4, 14, 3).
		Load(5, 4, 0).
		Halt().
		MustBuild()
	res := wantVerdict(t, p, Leaks)
	f := res.Findings[0]
	if f.Kind != isa.SinkAddress || f.Inst.Op != isa.OpLoad {
		t.Fatalf("finding should name the transmitting load: %+v", f)
	}
	if f.Transient {
		t.Fatal("this transmit is architectural")
	}
	if f.SourcePC != 3 {
		t.Fatalf("taint source pc %d, want 3 (the secret load)", f.SourcePC)
	}
	if len(f.Path) == 0 {
		t.Fatal("witness path empty")
	}
	if last := f.Path[len(f.Path)-1]; last.Inst.Op != isa.OpLoad || last.PC != 7 {
		t.Fatalf("witness must end at the transmitting load, ends at %d: %s", last.PC, last.Inst)
	}
}

func TestTransientTransmitBehindAlwaysTakenBranch(t *testing.T) {
	// The branch architecturally always skips the gadget; the wrong
	// path is transient, and the transmit only ever happens inside the
	// speculation window.
	b := isa.NewBuilder()
	b.Const(12, secretBase).
		Const(13, 7).
		Const(14, probeBase).
		BranchEQ(0, 0, "skip"). // always taken
		Load(1, 12, 0).
		And(2, 1, 13).
		ShlI(3, 2, 12).
		Add(4, 14, 3).
		Load(5, 4, 0).
		Label("skip").
		Halt()
	p := b.MustBuild()
	res := wantVerdict(t, p, Leaks)
	f := res.Findings[0]
	if !f.Transient {
		t.Fatal("transmit should be transient (wrong path of an always-taken branch)")
	}
	if f.Kind != isa.SinkAddress {
		t.Fatalf("kind %s, want address", f.Kind)
	}
	if f.Taint != SpecSecret {
		t.Fatalf("taint %s, want spec-secret", f.Taint)
	}
}

func TestSecretBranchConditionLeaks(t *testing.T) {
	p := isa.NewBuilder().
		Const(12, secretBase).
		Load(1, 12, 0).
		BranchLT(1, 0, "out").
		Label("out").
		Halt().
		MustBuild()
	res := wantVerdict(t, p, Leaks)
	if res.Findings[0].Kind != isa.SinkBranch {
		t.Fatalf("kind %s, want branch", res.Findings[0].Kind)
	}
}

func TestSecretDivisorLeaksViaTrapGate(t *testing.T) {
	p := isa.NewBuilder().
		Const(12, secretBase).
		Const(1, 5).
		Load(2, 12, 0).
		Div(3, 1, 2). // traps iff the secret word is zero
		Halt().
		MustBuild()
	res := wantVerdict(t, p, Leaks)
	if res.Findings[0].Kind != isa.SinkTrapGate {
		t.Fatalf("kind %s, want trap-gate", res.Findings[0].Kind)
	}
}

func TestDivFaultOpensTransientWindow(t *testing.T) {
	// The div-by-zero gate: the fall-through after a certain fault is
	// transient, and a secret-dependent probe load inside it leaks.
	p := isa.NewBuilder().
		Const(12, secretBase).
		Const(13, 7).
		Const(14, probeBase).
		Const(1, 10).
		Div(2, 1, 0).   // r0 divisor: always faults
		Load(3, 12, 0). // transient secret read
		And(4, 3, 13).
		ShlI(5, 4, 12).
		Add(6, 14, 5).
		Load(7, 6, 0). // transient transmit
		Halt().
		MustBuild()
	res := wantVerdict(t, p, Leaks)
	f := res.Findings[0]
	if !f.Transient || f.Kind != isa.SinkAddress {
		t.Fatalf("want transient address transmit, got %+v", f)
	}
	if f.Taint != SpecSecret {
		t.Fatalf("taint %s, want spec-secret", f.Taint)
	}
}

func TestBenignSecretReadNoLeak(t *testing.T) {
	// Reading the secret is fine as long as it never reaches an
	// address, a branch condition or a divisor.
	p := isa.NewBuilder().
		Const(9, regionBase).
		Const(12, secretBase).
		Load(1, 12, 0).
		Xor(2, 1, 1).
		Store(9, 0, 1). // tainted value at an untainted address: data, not timing
		Halt().
		MustBuild()
	wantVerdict(t, p, NoLeak)
}

func TestTaintThroughMemoryRoundTrip(t *testing.T) {
	// Secret stored to a known cell, loaded back, branched on.
	p := isa.NewBuilder().
		Const(9, regionBase).
		Const(12, secretBase).
		Load(1, 12, 0).
		Store(9, 8, 1).
		Load(2, 9, 8).
		BranchNE(2, 0, "x").
		Label("x").
		Halt().
		MustBuild()
	res := wantVerdict(t, p, Leaks)
	if res.Findings[0].Kind != isa.SinkBranch {
		t.Fatalf("kind %s", res.Findings[0].Kind)
	}
}

func TestHavocStoreSpreadsTaint(t *testing.T) {
	// A tainted value stored through an unknown address may land
	// anywhere: a later load from any address must pick the taint up.
	p := isa.NewBuilder().
		Const(9, regionBase).
		Const(12, secretBase).
		Load(1, 12, 0). // secret
		Load(2, 9, 0).  // unknown untainted (the store address)
		Store(2, 0, 1). // havoc: secret could be at any word now
		Load(3, 9, 16).
		BranchNE(3, 0, "x").
		Label("x").
		Halt().
		MustBuild()
	wantVerdict(t, p, Leaks)
}

func TestMaskedRegionAddressStaysUntainted(t *testing.T) {
	// Interval precision: a region-masked address provably cannot
	// reach the secret region, so loading through it is benign even
	// though the exact address is unknown.
	p := isa.NewBuilder().
		Const(9, regionBase).
		Load(1, 9, 0). // unknown region word
		Const(2, 56).
		And(3, 1, 2).  // [0, 56]
		Add(4, 9, 3).  // [regionBase, regionBase+56]
		Load(5, 4, 0). // stays inside the region: no secret reachable
		BranchNE(5, 0, "x").
		Label("x").
		Halt().
		MustBuild()
	wantVerdict(t, p, NoLeak)
}

func TestUnknownAddressReachingSecretTaintsResult(t *testing.T) {
	// A fully unknown (⊤) untainted address is the same in both runs —
	// not a sink — but the loaded value may be a secret word, so using
	// it in a branch is a leak.
	p := isa.NewBuilder().
		Const(9, regionBase).
		Load(1, 9, 0). // unknown value
		Mul(2, 1, 1).  // widen to ⊤ (interval rules give up on mul)
		Load(3, 2, 0). // ⊤ address: may read the secret region
		BranchNE(3, 0, "x").
		Label("x").
		Halt().
		MustBuild()
	wantVerdict(t, p, Leaks)
}

func TestUnknownTripLoopHitsBudget(t *testing.T) {
	// A loop whose trip count the analysis cannot pin must come back
	// Unknown (budget), never a wrong NoLeak.
	b := isa.NewBuilder()
	b.Const(9, regionBase).
		Label("top").
		Load(1, 9, 0).
		BranchNE(1, 0, "top").
		Halt()
	p := b.MustBuild()
	res := Analyze(p, Options{MaxVisits: 64})
	if res.Verdict != Unknown || !res.Truncated {
		t.Fatalf("verdict %s truncated=%v, want Unknown with budget hit",
			res.Verdict, res.Truncated)
	}
}

func TestKnownLoopTerminatesExactly(t *testing.T) {
	// A counted loop with known bounds explores exactly and stays
	// NoLeak without tripping any budget.
	b := isa.NewBuilder()
	b.Const(9, regionBase).
		Const(1, 0).
		Const(2, 5).
		Label("top").
		Load(3, 9, 0).
		AddI(1, 1, 1).
		BranchLT(1, 2, "top").
		Halt()
	p := b.MustBuild()
	res := wantVerdict(t, p, NoLeak)
	if res.Truncated {
		t.Fatal("counted loop should not hit budgets")
	}
}

func TestTransientStoreHasNoEffect(t *testing.T) {
	// A store on the wrong path never retires: the secret it would
	// have written must not taint later architectural loads.
	b := isa.NewBuilder()
	b.Const(9, regionBase).
		Const(12, secretBase).
		BranchEQ(0, 0, "skip"). // always taken
		Load(1, 12, 0).         // transient secret read
		Store(9, 0, 1).         // transient store: never retires
		Label("skip").
		Load(2, 9, 0). // architectural: untainted
		BranchNE(2, 0, "x").
		Label("x").
		Halt()
	p := b.MustBuild()
	wantVerdict(t, p, NoLeak)
}

func TestWitnessRendering(t *testing.T) {
	p := isa.NewBuilder().
		Const(12, secretBase).
		Const(14, probeBase).
		Load(1, 12, 0).
		Add(2, 14, 1).
		Load(3, 2, 0).
		Halt().
		MustBuild()
	res := wantVerdict(t, p, Leaks)
	w := res.Findings[0].Render()
	for _, want := range []string{"address transmit", "load r3, [r2+0]", "TRANSMIT", "reads secret region"} {
		if !strings.Contains(w, want) {
			t.Errorf("witness missing %q:\n%s", want, w)
		}
	}
	if !strings.Contains(res.Summary(), "Leaks") {
		t.Errorf("summary %q", res.Summary())
	}
}

func TestEnumStrings(t *testing.T) {
	for v, want := range map[Verdict]string{NoLeak: "NoLeak", Leaks: "Leaks", Unknown: "Unknown"} {
		if v.String() != want {
			t.Errorf("%d prints %q", v, v.String())
		}
	}
	for ta, want := range map[Taint]string{Untainted: "untainted", SpecSecret: "spec-secret", Secret: "secret"} {
		if ta.String() != want {
			t.Errorf("%d prints %q", ta, ta.String())
		}
	}
}
