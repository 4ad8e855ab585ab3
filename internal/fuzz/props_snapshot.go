package fuzz

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/machine"
)

// CheckSnapshotInvariance runs the snapshot-equivalence property for
// one program under every scheme: at each fuzz-selected fork cycle,
// taking a whole-machine snapshot must not perturb the run (the full
// trace hash, final registers and cycle count still match a fresh
// reference run), and restoring the snapshot and re-running the suffix
// must be bit-identical to the first continuation (suffix trace hash,
// final architectural state and the full telemetry Stats aggregate).
// Fork cycles are drawn deterministically from the options' machine
// seed, so every divergence is replayable.
func (g *Generator) CheckSnapshotInvariance(prog *isa.Program, o Options) []Divergence {
	var out []Divergence
	for _, spec := range o.schemes() {
		refScheme, err := o.newScheme(spec)
		if err != nil {
			out = append(out, Divergence{Property: "snapshot", Scheme: spec, Detail: err.Error()})
			continue
		}
		ref := g.newRig(o).run(prog, refScheme)
		if ref.timedOut || ref.cycles < 4 {
			continue // too short to fork mid-run; other properties cover it
		}
		for _, k := range snapshotForkCycles(o.MachineSeed, o.snapshotForks(), ref.cycles) {
			if d := g.checkForkAt(prog, spec, k, ref, o); d != nil {
				out = append(out, *d)
				break // one witness per scheme is enough
			}
		}
	}
	return out
}

// checkForkAt runs one fork-point trial: fresh machine to cycle k,
// snapshot, run to completion, restore, re-run, compare everything.
func (g *Generator) checkForkAt(prog *isa.Program, spec string, k uint64, ref runResult, o Options) *Divergence {
	fail := func(format string, args ...any) *Divergence {
		return &Divergence{Property: "snapshot", Scheme: spec,
			Detail: fmt.Sprintf("fork@%d: ", k) + fmt.Sprintf(format, args...)}
	}
	scheme, err := o.newScheme(spec)
	if err != nil {
		return fail("%v", err)
	}
	core := g.newRig(o).boot(scheme)
	mach := machine.Of(core)

	full := newTraceHasher(nil) // sees the whole first run, across the fork
	core.SetTracer(full)
	core.BeginProgram(prog)
	for !core.Halted() && core.Cycle() < k {
		core.Step()
	}
	if core.Halted() {
		return nil // fast-forward jumped past the end; nothing to fork
	}
	snap, err := mach.Snapshot()
	if err != nil {
		return fail("%v", err)
	}

	// First continuation: the suffix hasher chains into the full-run
	// hasher, so we get both the fork-local and whole-run hashes.
	sufA := newTraceHasher(full)
	core.SetTracer(sufA)
	for !core.Step() {
	}
	regsA, statsA := coreObservables(core)

	// The snapshot must not have perturbed the run at all.
	if full.Sum() != ref.traceSum {
		return fail("run-through-snapshot trace hash %x != fresh-run %x", full.Sum(), ref.traceSum)
	}
	if statsA.Cycles != ref.cycles {
		return fail("run-through-snapshot cycles %d != fresh-run %d", statsA.Cycles, ref.cycles)
	}
	if regsA != ref.regs {
		return fail("run-through-snapshot registers diverge from fresh run")
	}

	// Rewind and replay the suffix; it must be bit-identical.
	if err := mach.Restore(snap); err != nil {
		return fail("restore: %v", err)
	}
	if got := core.Cycle(); got != k && got != snap.Cycle() {
		return fail("restore landed on cycle %d, snapshot was at %d", got, snap.Cycle())
	}
	sufB := newTraceHasher(nil)
	core.SetTracer(sufB)
	for !core.Step() {
	}
	regsB, statsB := coreObservables(core)
	snap.Release()

	if sufA.Sum() != sufB.Sum() {
		return fail("replayed suffix trace hash %x != first continuation %x", sufB.Sum(), sufA.Sum())
	}
	if regsA != regsB {
		return fail("replayed suffix registers diverge from first continuation")
	}
	if statsA != statsB {
		return fail("replayed suffix stats diverge: %+v vs %+v", statsB, statsA)
	}
	return nil
}

// coreObservables gathers the architectural registers and the full
// cumulative Stats aggregate (core + branch + undo + hierarchy).
func coreObservables(core *cpu.CPU) ([isa.NumRegs]uint64, cpu.Stats) {
	var regs [isa.NumRegs]uint64
	for r := isa.Reg(1); r < isa.NumRegs; r++ {
		regs[r] = core.Reg(r)
	}
	return regs, core.RunStats()
}

// snapshotForkCycles draws n deterministic pseudo-random fork cycles in
// [1, total) via SplitMix64, so fork-point selection is fuzzed but
// replayable from the seed.
func snapshotForkCycles(seed int64, n int, total uint64) []uint64 {
	out := make([]uint64, 0, n)
	z := uint64(seed) ^ 0x5bf0363db1a6fed5
	for i := 0; i < n; i++ {
		z += 0x9e3779b97f4a7c15
		x := z
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
		out = append(out, 1+x%(total-1))
	}
	return out
}
