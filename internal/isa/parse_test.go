package isa

import (
	"math/rand"
	"testing"
)

// TestParseDisassembleRoundTrip checks that every opcode survives the
// Disassemble → ParseProgram round trip bit for bit.
func TestParseDisassembleRoundTrip(t *testing.T) {
	b := NewBuilder()
	b.Const(1, 42).Const(2, -7).Mov(3, 1)
	b.Add(4, 1, 2).AddI(5, 4, 9).Sub(6, 4, 1).Mul(7, 6, 2)
	b.And(1, 2, 3).Or(2, 3, 4).Xor(3, 4, 5)
	b.ShlI(4, 5, 3).ShrI(5, 6, 2)
	b.Load(6, 1, 64).Store(1, -8, 6).Flush(1, 128)
	b.Fence().RdTSC(8).Nop()
	b.Label("top")
	b.BranchLT(1, 2, "top").BranchGE(2, 3, "top")
	b.BranchEQ(3, 4, "end").BranchNE(4, 5, "end")
	b.Jmp("end")
	b.Label("end")
	b.Halt()
	prog := b.MustBuild()

	got, err := ParseProgram(prog.Disassemble())
	if err != nil {
		t.Fatalf("ParseProgram(Disassemble): %v", err)
	}
	if got.Len() != prog.Len() {
		t.Fatalf("length %d, want %d", got.Len(), prog.Len())
	}
	for i := range prog.Insts {
		if got.Insts[i] != prog.Insts[i] {
			t.Errorf("inst %d: %v, want %v", i, got.Insts[i], prog.Insts[i])
		}
	}
}

// TestParseRandomProgramsRoundTrip round-trips machine-generated
// programs of every shape the fuzzer emits.
func TestParseRandomProgramsRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder()
		for i := 0; i < 30; i++ {
			switch rng.Intn(5) {
			case 0:
				b.Add(Reg(1+rng.Intn(8)), Reg(1+rng.Intn(8)), Reg(1+rng.Intn(8)))
			case 1:
				b.Load(Reg(1+rng.Intn(8)), 9, int64(rng.Intn(64))*8)
			case 2:
				b.Store(9, int64(rng.Intn(64))*8, Reg(1+rng.Intn(8)))
			case 3:
				b.Const(Reg(1+rng.Intn(8)), int64(rng.Intn(1000)-500))
			case 4:
				b.Flush(9, int64(rng.Intn(64))*8)
			}
		}
		b.Halt()
		prog := b.MustBuild()
		got, err := ParseProgram(prog.Disassemble())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got.Disassemble() != prog.Disassemble() {
			t.Fatalf("seed %d: round trip diverged", seed)
		}
	}
}

// TestParseLabelsAndComments exercises the hand-written witness
// conveniences: labels, comments, blank lines.
func TestParseLabelsAndComments(t *testing.T) {
	src := `
	# a loop that counts to three
	const r10, 0
	const r11, 3          // bound
	loop:
	addi r10, r10, 1      ; increment
	blt r10, r11, loop
	halt
	`
	prog, err := ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Len() != 5 {
		t.Fatalf("got %d instructions, want 5", prog.Len())
	}
	if prog.Insts[3].Op != OpBranchLT || prog.Insts[3].Target != 2 {
		t.Fatalf("branch did not resolve label: %v", prog.Insts[3])
	}
	res := Interpret(prog, nopMemory{}, [NumRegs]uint64{}, 1000)
	if res.Regs[10] != 3 {
		t.Fatalf("r10 = %d, want 3", res.Regs[10])
	}
}

// TestParseRejectsGarbage covers the error paths.
func TestParseRejectsGarbage(t *testing.T) {
	cases := []string{
		"",                          // empty program
		"frobnicate r1, r2",         // unknown mnemonic
		"const r1",                  // missing operand
		"const r99, 5\nhalt",        // register out of range
		"load r1, r2\nhalt",         // not a memory operand
		"blt r1, r2, nowhere\nhalt", // undefined label
		"blt r1, r2, @99\nhalt",     // target out of range
		"top:\ntop:\nhalt",          // duplicate label
		"const rX, 5\nhalt",         // non-numeric register
	}
	for _, src := range cases {
		if _, err := ParseProgram(src); err == nil {
			t.Errorf("ParseProgram(%q) accepted", src)
		}
	}
}

// nopMemory is an InterpMemory that reads zero and discards writes.
type nopMemory struct{}

func (nopMemory) ReadWord(Addr64) uint64   { return 0 }
func (nopMemory) WriteWord(Addr64, uint64) {}
