package cpu_test

import (
	"testing"

	"repro/internal/branch"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/memsys"
	"repro/internal/noise"
	"repro/internal/undo"
	"repro/internal/workload"
)

// TestWarmRerunAllocatesNothing re-runs a Figure 12 kernel that fills
// the ROB on one warm core: the rename table, dependents lists, bitmaps
// and completion heap are all sized in New, so the run loop must not
// allocate.
func TestWarmRerunAllocatesNothing(t *testing.T) {
	wl := workload.PointerChase(300, 1024, 42)
	m := mem.NewMemory()
	wl.Init(m)
	cfg := cpu.DefaultConfig()
	c := cpu.MustNew(cfg, memsys.MustNew(memsys.DefaultConfig(42), m),
		branch.New(branch.DefaultConfig()), undo.NewCleanupSpec(), noise.None{})

	full := false
	c.BeginProgram(wl.Program)
	for !c.Step() {
		full = full || c.PostMortem().ROBOccupancy == cfg.ROBSize
	}
	if !full {
		t.Fatal("the kernel never filled the ROB")
	}
	if allocs := testing.AllocsPerRun(3, func() { c.Run(wl.Program) }); allocs != 0 {
		t.Fatalf("warm re-run allocated %.1f times per run, want 0", allocs)
	}
}
