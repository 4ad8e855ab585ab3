package machine_test

// The differential snapshot-equivalence suite: the acceptance property
// of the whole-machine Fork primitive. For a corpus of fuzz-generated
// programs and for many fork cycles per program, fork-then-run must be
// bit-identical to fresh-run — trace hash, architectural state and the
// full telemetry Stats aggregate — and COW page sharing must never
// bleed writes between siblings. CheckSnapshotInvariance (internal/
// fuzz) implements the per-fork-point comparison; this suite drives it
// across the corpus, then adds machine-level aliasing and allocation
// bounds that the fuzz property does not cover.

import (
	"testing"

	"repro/internal/branch"
	"repro/internal/cpu"
	"repro/internal/fuzz"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/memsys"
	"repro/internal/noise"
	"repro/internal/undo"
)

// corpusSeeds are the corpus programs of the differential suite; each
// one is forked at forkPointsPerProgram fuzz-selected cycles under
// every scheme in the matrix.
var corpusSeeds = []int64{1, 7, 1912}

const forkPointsPerProgram = 8

// TestDifferentialSnapshotEquivalence is the acceptance-criteria run:
// ≥3 corpus programs × ≥8 fork cycles each, fork-then-run bit-identical
// to fresh-run, across every undo scheme. Run under -race by
// scripts/snapshot_smoke.sh.
func TestDifferentialSnapshotEquivalence(t *testing.T) {
	g := fuzz.MustNew(fuzz.DefaultConfig())
	for _, seed := range corpusSeeds {
		prog := g.Program(seed)
		opts := fuzz.Options{
			MemSeed:       seed,
			MachineSeed:   seed * 31,
			SnapshotForks: forkPointsPerProgram,
		}
		for _, d := range g.CheckSnapshotInvariance(prog, opts) {
			t.Errorf("program %d: %s", seed, d.String())
		}
	}
}

// buildMachine assembles the standard single-core machine the
// machine-level tests fork.
func buildMachine(t testing.TB, seed int64) (*cpu.CPU, *mem.Memory) {
	t.Helper()
	m := mem.NewMemory()
	g := fuzz.MustNew(fuzz.DefaultConfig())
	g.InitMemory(seed, m)
	hier := memsys.MustNew(memsys.DefaultConfig(seed), m)
	core, err := cpu.New(cpu.DefaultConfig(), hier, branch.New(branch.DefaultConfig()),
		undo.NewCleanupSpec(), noise.None{})
	if err != nil {
		t.Fatalf("building machine: %v", err)
	}
	return core, m
}

// TestForkSiblingIsolation forks one warm machine state and runs two
// different programs forward from it on the same machine (restore in
// between); writes from the first continuation must never be visible
// in the second — the machine-level COW aliasing property.
func TestForkSiblingIsolation(t *testing.T) {
	g := fuzz.MustNew(fuzz.DefaultConfig())
	core, m := buildMachine(t, 3)
	warm := g.Program(3)
	core.Run(warm)
	mach := machine.Of(core)
	snap, err := mach.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}

	progA, progB := g.Program(11), g.Program(23)
	core.Run(progA)
	sumAfterA := regionSum(g, m)

	if err := mach.Restore(snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	sumAtFork := regionSum(g, m)
	core.Run(progB)

	if err := mach.Restore(snap); err != nil {
		t.Fatalf("second restore: %v", err)
	}
	if got := regionSum(g, m); got != sumAtFork {
		t.Errorf("fork-point memory changed across sibling runs: %#x vs %#x", got, sumAtFork)
	}
	core.Run(progA)
	if got := regionSum(g, m); got != sumAfterA {
		t.Errorf("replay of program A diverged: %#x vs %#x (sibling bleed)", got, sumAfterA)
	}
	snap.Release()
	if got := m.SharedPageCount(); got != 0 {
		t.Errorf("%d pages still shared after snapshot release", got)
	}
}

// regionSum folds the fuzz data region into one order-sensitive value.
func regionSum(g *fuzz.Generator, m *mem.Memory) uint64 {
	cfg := g.Config()
	var sum uint64
	for i := 0; i < cfg.RegionWords; i++ {
		sum = sum*1099511628211 ^ m.ReadWord(mem.Addr(cfg.RegionBase)+mem.Addr(i*8))
	}
	return sum
}

// TestWarmForkAllocsBounded proves a warm restore-and-rerun trial
// allocates only COW bookkeeping, not fresh machine state: after one
// warmup lap the per-trial allocation count must be (near) zero — the
// freelist recycles dirtied pages and the core reuses its ROB buffer.
func TestWarmForkAllocsBounded(t *testing.T) {
	g := fuzz.MustNew(fuzz.DefaultConfig())
	core, _ := buildMachine(t, 5)
	prog := g.Program(5)
	core.Run(prog)
	mach := machine.Of(core)
	snap, err := mach.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	trial := func() {
		core.Run(prog)
		if err := mach.Restore(snap); err != nil {
			t.Fatalf("restore: %v", err)
		}
	}
	trial() // warm freelists and map buckets
	trial()
	if avg := testing.AllocsPerRun(50, trial); avg > 4 {
		t.Errorf("warm fork trial allocates %.1f/op, want ≤4 (COW bookkeeping only)", avg)
	}
}

// TestSnapshotSurvivesReset rewinds the machine all the way back to its
// just-built state and then forward again: restoring the earlier
// snapshot drops every page and line the later one shares, and that
// must not corrupt the later, frozen snapshot (shared pages are
// dereferenced, never zeroed in place).
func TestSnapshotSurvivesReset(t *testing.T) {
	g := fuzz.MustNew(fuzz.DefaultConfig())
	core, m := buildMachine(t, 9)
	prog := g.Program(9)
	mach := machine.Of(core)
	pristine, err := mach.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	defer pristine.Release()
	st := core.Run(prog)
	snap, err := mach.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	wantSum := regionSum(g, m)

	if err := mach.Restore(pristine); err != nil {
		t.Fatalf("restore to pristine: %v", err)
	}
	if got := core.Cycle(); got != 0 {
		t.Fatalf("cycle after restore to pristine = %d, want 0", got)
	}
	if err := mach.Restore(snap); err != nil {
		t.Fatalf("restore after rewind: %v", err)
	}
	if got := regionSum(g, m); got != wantSum {
		t.Errorf("memory after rewind+restore = %#x, want %#x", got, wantSum)
	}
	if got := core.Cycle(); got != st.Cycles {
		t.Errorf("cycle after rewind+restore = %d, want %d", got, st.Cycles)
	}
}
