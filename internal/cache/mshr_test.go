package cache

import (
	"testing"

	"repro/internal/mem"
)

func TestMSHRAllocateAndComplete(t *testing.T) {
	m := NewMSHRFile(2)
	ok := m.Allocate(MSHREntry{LineAddr: 0x40, IssueCycle: 10, FillCycle: 110})
	if !ok || m.Occupancy() != 1 {
		t.Fatalf("alloc failed or occupancy wrong (%d)", m.Occupancy())
	}
	if done := m.Complete(50); len(done) != 0 {
		t.Fatal("completed before fill cycle")
	}
	done := m.Complete(110)
	if len(done) != 1 || done[0].LineAddr != 0x40 {
		t.Fatalf("complete returned %v", done)
	}
	if m.Occupancy() != 0 {
		t.Fatal("entry not removed after completion")
	}
}

func TestMSHRStructuralStall(t *testing.T) {
	m := NewMSHRFile(1)
	m.Allocate(MSHREntry{LineAddr: 0x40, FillCycle: 100})
	if m.Allocate(MSHREntry{LineAddr: 0x80, FillCycle: 100}) {
		t.Fatal("second allocate should fail when full")
	}
	if m.Stalls() != 1 {
		t.Fatalf("stall counter %d, want 1", m.Stalls())
	}
	if !m.Full() {
		t.Fatal("Full() should be true")
	}
}

func TestMSHRCleanSpeculative(t *testing.T) {
	m := NewMSHRFile(8)
	m.Allocate(MSHREntry{LineAddr: 0x40, Speculative: true, Epoch: 5, FillCycle: 100})
	m.Allocate(MSHREntry{LineAddr: 0x80, Speculative: true, Epoch: 3, FillCycle: 100})
	m.Allocate(MSHREntry{LineAddr: 0xc0, Speculative: false, FillCycle: 100})
	if n := m.CleanSpeculative(5); n != 1 {
		t.Fatalf("cleaned %d, want 1 (epoch>=5 only)", n)
	}
	if m.Occupancy() != 2 {
		t.Fatalf("occupancy %d, want 2", m.Occupancy())
	}
	if n := m.CleanSpeculative(0); n != 1 {
		t.Fatalf("cleaned %d, want remaining speculative entry", n)
	}
}

func TestMSHRSpeculativeEntriesCopies(t *testing.T) {
	m := NewMSHRFile(4)
	e := MSHREntry{LineAddr: 0x40, Speculative: true, Epoch: 1, FillCycle: 10,
		EvictedL1: 0x1000, HasVictim: true}
	m.Allocate(e)
	got := m.SpeculativeEntries(0)
	if len(got) != 1 || got[0].EvictedL1 != mem.Addr(0x1000) || !got[0].HasVictim {
		t.Fatalf("entries %v", got)
	}
	got[0].LineAddr = 0 // mutation must not affect the file
	if m.Entries()[0].LineAddr != 0x40 {
		t.Fatal("SpeculativeEntries returned aliased storage")
	}
}

// TestMSHRPeakAndReset checks the high-water mark and that restoring a
// snapshot of the empty file rewinds entries and statistics alike.
func TestMSHRPeakAndReset(t *testing.T) {
	m := NewMSHRFile(4)
	empty := m.Snapshot()
	for i := 0; i < 3; i++ {
		m.Allocate(MSHREntry{LineAddr: mem.Addr(i * 64), FillCycle: 5})
	}
	if m.Peak() != 3 || m.Allocs() != 3 {
		t.Fatalf("peak=%d allocs=%d", m.Peak(), m.Allocs())
	}
	m.Restore(empty)
	if m.Occupancy() != 0 || m.Peak() != 0 || m.Allocs() != 0 {
		t.Fatalf("restore to empty left occupancy=%d peak=%d allocs=%d",
			m.Occupancy(), m.Peak(), m.Allocs())
	}
}

func TestMSHRDefaultCapacity(t *testing.T) {
	m := NewMSHRFile(0)
	if m.Capacity() != 16 {
		t.Fatalf("default capacity %d, want 16", m.Capacity())
	}
}
