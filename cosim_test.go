// Co-simulation fuzzing: randomly generated programs execute on both
// the architectural reference interpreter (isa.Interpret) and the
// out-of-order core under every undo scheme; final register and memory
// state must agree exactly. This is the strongest general correctness
// check on the core: it covers operand forwarding, store ordering,
// wrong-path containment, squash recovery, and scheme side effects in
// one property.
//
// The generator and the property checks live in internal/fuzz (shared
// with cmd/fuzz and the corpus replay tests); this file keeps the
// historical seed schedule so the exact programs that validated the
// seed repo keep running on every `go test`.
package repro_test

import (
	"math/rand"
	"testing"

	"repro/internal/branch"
	"repro/internal/cpu"
	"repro/internal/fuzz"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/memsys"
	"repro/internal/noise"
	"repro/internal/undo"
)

// memAdapter lets mem.Memory satisfy isa.InterpMemory.
type memAdapter struct{ m *mem.Memory }

func (a memAdapter) ReadWord(addr uint64) uint64     { return a.m.ReadWord(mem.Addr(addr)) }
func (a memAdapter) WriteWord(addr uint64, v uint64) { a.m.WriteWord(mem.Addr(addr), v) }

func TestCosimRandomProgramsAllSchemes(t *testing.T) {
	g := fuzz.MustNew(fuzz.DefaultConfig())
	const trials = 40
	for trial := int64(0); trial < trials; trial++ {
		prog := g.Program(trial)
		opts := fuzz.Options{MemSeed: trial + 1000, MachineSeed: trial}
		if divs := g.CheckProgram(prog, opts); len(divs) > 0 {
			t.Fatalf("trial %d: %s\nprogram:\n%s", trial, divs[0].String(), prog.Disassemble())
		}
	}
}

func TestCosimWithNoiseStillArchitecturallyExact(t *testing.T) {
	// Noise perturbs timing; architecture must still match the golden
	// model bit for bit. CheckProgram runs noiseless machines, so this
	// test wires the noisy core by hand.
	g := fuzz.MustNew(fuzz.DefaultConfig())
	for trial := int64(0); trial < 10; trial++ {
		// A fixed five blocks, skipping Program's block-count draw: the
		// historical noise co-simulation schedule.
		prog := g.ProgramWithRNG(rand.New(rand.NewSource(1000+trial)), 5)
		refMem := mem.NewMemory()
		g.InitMemory(trial, refMem)
		ref := isa.Interpret(prog, memAdapter{refMem}, [isa.NumRegs]uint64{}, 200_000)

		coreMem := mem.NewMemory()
		g.InitMemory(trial, coreMem)
		hier := memsys.MustNew(memsys.DefaultConfig(3), coreMem)
		core := cpu.MustNew(cpu.DefaultConfig(), hier, branch.New(branch.DefaultConfig()),
			undo.NewCleanupSpec(), noise.NewSystem(trial))
		core.Run(prog)
		for r := isa.Reg(1); r <= 11; r++ {
			if core.Reg(r) != ref.Regs[r] {
				t.Fatalf("trial %d: r%d = %d, reference %d", trial, r, core.Reg(r), ref.Regs[r])
			}
		}
	}
}
