package multicore

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/undo"
)

func TestSMTSharedL1Visible(t *testing.T) {
	sys, err := NewSMT(1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	sys.Memory().WriteWord(0x8000, 9)
	warm := isa.NewBuilder().Const(1, 0x8000).Load(2, 1, 0).Halt().MustBuild()
	timed := isa.NewBuilder().
		Const(1, 0x8000).
		Fence().RdTSC(30).Load(2, 1, 0).RdTSC(31).Sub(3, 31, 30).
		Halt().MustBuild()
	idle := isa.NewBuilder().Halt().MustBuild()
	if _, err := sys.RunAll([]*isa.Program{warm, idle}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunAll([]*isa.Program{idle, timed}, 0); err != nil {
		t.Fatal(err)
	}
	// Thread 1 hits the L1 line thread 0 warmed — shared L1.
	if lat := sys.Core(1).Reg(3); lat > 4 {
		t.Fatalf("SMT sibling saw latency %d, want L1 hit", lat)
	}
}

// TestSMTThreadsShareOneL1D: both threads see one L1D and are not each
// other's coherence peers, so a flush removes the line once, with no
// back-invalidation of the very cache it just flushed.
func TestSMTThreadsShareOneL1D(t *testing.T) {
	sys, err := NewSMT(6, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	h0, h1 := sys.Hierarchy(0), sys.Hierarchy(1)
	if h0.L1D() != h1.L1D() || h0.L2() != h1.L2() {
		t.Fatal("SMT threads do not share the L1D and L2")
	}
	h0.WarmRead(0xa000)
	h1.Flush(0xa000)
	if h0.L1D().Probe(0xa000) {
		t.Fatal("flush left the line in the shared L1D")
	}
	if got := h1.Stats().BackInvalidations; got != 0 {
		t.Fatalf("flush back-invalidated the shared L1D %d time(s); SMT threads must not be peers", got)
	}
}

func TestSMTPrimeProbeWithoutNoMoLeaks(t *testing.T) {
	ev, err := SMTPrimeProbe(2, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if ev == 0 {
		t.Fatal("unpartitioned SMT Prime+Probe saw no eviction — channel should exist")
	}
	// Control: without the victim access, no eviction.
	ev0, err := SMTPrimeProbe(2, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if ev0 != 0 {
		t.Fatalf("control run shows %d evictions", ev0)
	}
}

func TestSMTPrimeProbeNoMoDefends(t *testing.T) {
	// With 4-way NoMo partitioning the victim's fill stays inside its
	// own ways: the attacker's primed lines survive.
	ev, err := SMTPrimeProbe(3, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	if ev != 0 {
		t.Fatalf("NoMo-partitioned Prime+Probe still saw %d evictions", ev)
	}
}

func TestSMTRunAllValidation(t *testing.T) {
	sys, err := NewSMT(4, 0, func(int) undo.Scheme { return undo.NewUnsafe() })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunAll([]*isa.Program{isa.NewBuilder().Halt().MustBuild()}, 0); err == nil {
		t.Fatal("single program accepted")
	}
	spin := isa.NewBuilder().Label("x").Jmp("x").MustBuild()
	halt := isa.NewBuilder().Halt().MustBuild()
	if _, err := sys.RunAll([]*isa.Program{spin, halt}, 1000); err == nil {
		t.Fatal("watchdog did not fire")
	}
}
