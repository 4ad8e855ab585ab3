package mem

import (
	"sync"
	"testing"
)

// TestMemoryCOWClone forks three siblings off one parent, interleaves
// writes across all four, and asserts word-level isolation: a write
// through any owner is never visible through another.
func TestMemoryCOWClone(t *testing.T) {
	parent := NewMemory()
	for i := 0; i < 4*pageWords; i++ { // four full pages
		parent.WriteWord(Addr(i*WordSize), uint64(1000+i))
	}
	base := parent.Footprint()

	sibs := []*Memory{parent.Fork(), parent.Fork(), parent.Fork()}
	for i, s := range sibs {
		if got := s.Footprint(); got != base {
			t.Fatalf("sibling %d footprint = %d, want %d", i, got, base)
		}
		if got := s.SharedPageCount(); got != s.PageCount() {
			t.Fatalf("sibling %d: %d/%d pages shared, want all", i, got, s.PageCount())
		}
	}

	// Interleave writes: each owner stamps its identity into a distinct
	// word of the SAME page, plus overwrites a common word.
	common := Addr(8)
	for i, s := range sibs {
		s.WriteWord(Addr((100+i)*WordSize), uint64(i))
		s.WriteWord(common, uint64(7000+i))
	}
	parent.WriteWord(common, 9999)

	for i, s := range sibs {
		if got := s.ReadWord(common); got != uint64(7000+i) {
			t.Errorf("sibling %d common word = %d, want %d", i, got, 7000+i)
		}
		for j := range sibs {
			got := s.ReadWord(Addr((100 + j) * WordSize))
			if j == i {
				if got != uint64(i) {
					t.Errorf("sibling %d lost its own write: got %d", i, got)
				}
			} else if got != uint64(1000+100+j) {
				t.Errorf("sibling %d sees sibling %d's write: got %d", i, j, got)
			}
		}
	}
	if got := parent.ReadWord(common); got != 9999 {
		t.Errorf("parent common word = %d, want 9999", got)
	}

	// Untouched pages remain physically shared; only the written page
	// was privatised.
	for i, s := range sibs {
		if got := s.SharedPageCount(); got != s.PageCount()-1 {
			t.Errorf("sibling %d: %d shared pages, want %d (one privatised)",
				i, got, s.PageCount()-1)
		}
	}
}

// TestMemoryCOWFootprint checks footprint accounting across fork
// boundaries: rewriting an inherited word does not grow the footprint,
// writing a fresh word grows only the writer's.
func TestMemoryCOWFootprint(t *testing.T) {
	parent := NewMemory()
	parent.WriteWord(0, 1)
	parent.WriteWord(8, 2)

	f := parent.Fork()
	if got := f.Footprint(); got != 2 {
		t.Fatalf("fork footprint = %d, want 2", got)
	}
	f.WriteWord(0, 42) // inherited word: no growth
	if got := f.Footprint(); got != 2 {
		t.Errorf("fork footprint after rewrite = %d, want 2", got)
	}
	f.WriteWord(16, 3) // fresh word: fork grows, parent does not
	if got := f.Footprint(); got != 3 {
		t.Errorf("fork footprint after fresh write = %d, want 3", got)
	}
	if got := parent.Footprint(); got != 2 {
		t.Errorf("parent footprint = %d, want 2", got)
	}
}

// TestMemoryCOWResetIsolation dirties a fork, rewinds it to an empty
// memory, and asserts the parent's view survives intact — Restore must
// deref shared slabs, never zero them in place.
func TestMemoryCOWResetIsolation(t *testing.T) {
	parent := NewMemory()
	for i := 0; i < 64; i++ {
		parent.WriteWord(Addr(i*WordSize), uint64(i)|0xabc0000)
	}
	f := parent.Fork()
	f.WriteWord(0, 1) // privatise one page
	f.Restore(NewMemory())

	for i := 0; i < 64; i++ {
		want := uint64(i) | 0xabc0000
		if got := parent.ReadWord(Addr(i * WordSize)); got != want {
			t.Fatalf("parent word %d corrupted by fork restore: got %#x, want %#x", i, got, want)
		}
		if got := f.ReadWord(Addr(i * WordSize)); got != 0 {
			t.Fatalf("fork word %d nonzero after restore: %#x", i, got)
		}
	}
	if got := f.Footprint(); got != 0 {
		t.Errorf("fork footprint after restore = %d, want 0", got)
	}
	if got := parent.SharedPageCount(); got != 0 {
		t.Errorf("parent still shares %d pages after fork restore", got)
	}
}

// TestMemoryCOWReleaseRefcounts asserts that releasing every fork
// returns the parent's refcounts to 1 (no page reported shared).
func TestMemoryCOWReleaseRefcounts(t *testing.T) {
	parent := NewMemory()
	for i := 0; i < 3*pageWords; i++ {
		parent.WriteWord(Addr(i*WordSize), uint64(i))
	}
	a, b := parent.Fork(), parent.Fork()
	b.WriteWord(0, 77) // b privatises page 0
	if parent.SharedPageCount() == 0 {
		t.Fatal("expected shared pages while forks are alive")
	}
	a.Release()
	b.Release()
	if got := parent.SharedPageCount(); got != 0 {
		t.Errorf("parent shares %d pages after all forks released, want 0", got)
	}
	if got, want := parent.ReadWord(0), uint64(0); got != want {
		t.Errorf("parent word 0 = %d, want %d", got, want)
	}
	if got := a.PageCount(); got != 0 {
		t.Errorf("released fork holds %d pages", got)
	}
}

// TestMemoryCOWRestore rewinds a dirtied memory to a frozen fork and
// checks contents, footprint and access counters all match the
// snapshot point bit-for-bit.
func TestMemoryCOWRestore(t *testing.T) {
	m := NewMemory()
	for i := 0; i < 2*pageWords; i++ {
		m.WriteWord(Addr(i*WordSize), uint64(3*i+1))
	}
	m.ReadWord(0)
	snap := m.Fork()
	wantReads, wantWrites, wantFoot := m.Reads(), m.Writes(), m.Footprint()

	// Dirty both an inherited page and a brand-new one.
	m.WriteWord(8, 0xdead)
	m.WriteWord(Addr(10*pageWords*WordSize), 0xbeef)
	m.Restore(NewMemory()) // even a rewind to empty must be rewindable

	m.Restore(snap)
	if m.Reads() != wantReads || m.Writes() != wantWrites || m.Footprint() != wantFoot {
		t.Errorf("counters after Restore = (%d,%d,%d), want (%d,%d,%d)",
			m.Reads(), m.Writes(), m.Footprint(), wantReads, wantWrites, wantFoot)
	}
	for i := 0; i < 2*pageWords; i++ {
		if got, want := m.ReadWord(Addr(i*WordSize)), uint64(3*i+1); got != want {
			t.Fatalf("word %d after Restore = %d, want %d", i, got, want)
		}
	}
	if got := m.ReadWord(Addr(10 * pageWords * WordSize)); got != 0 {
		t.Errorf("post-snapshot page survived Restore: %#x", got)
	}

	// Restoring twice in a row is idempotent.
	m.WriteWord(8, 0xdead)
	m.Restore(snap)
	m.Restore(snap)
	if got, want := m.ReadWord(8), uint64(3*1+1); got != want {
		t.Errorf("word 1 after double Restore = %d, want %d", got, want)
	}
}

// TestMemoryCOWSiblingGoroutines runs sibling forks on separate
// goroutines writing the same page range; under -race this proves
// shared slabs are never mutated in place and recycling is ordered
// after sibling reads.
func TestMemoryCOWSiblingGoroutines(t *testing.T) {
	parent := NewMemory()
	for i := 0; i < 8*pageWords; i++ {
		parent.WriteWord(Addr(i*WordSize), uint64(i))
	}
	const siblings = 4
	forks := make([]*Memory, siblings)
	for i := range forks {
		forks[i] = parent.Fork()
	}
	var wg sync.WaitGroup
	for i, f := range forks {
		wg.Add(1)
		go func(id int, f *Memory) {
			defer wg.Done()
			for w := 0; w < 8*pageWords; w++ {
				addr := Addr(w * WordSize)
				if f.ReadWord(addr) != uint64(w) {
					t.Errorf("fork %d read wrong inherited value at word %d", id, w)
					return
				}
				f.WriteWord(addr, uint64(id)<<32|uint64(w))
			}
		}(i, f)
	}
	wg.Wait()
	for i, f := range forks {
		for w := 0; w < 8*pageWords; w += pageWords / 2 {
			if got, want := f.ReadWord(Addr(w*WordSize)), uint64(i)<<32|uint64(w); got != want {
				t.Errorf("fork %d word %d = %#x, want %#x", i, w, got, want)
			}
		}
	}
	for w := 0; w < 8*pageWords; w += pageWords {
		if got := parent.ReadWord(Addr(w * WordSize)); got != uint64(w) {
			t.Errorf("parent word %d = %d, want %d", w, got, w)
		}
	}
}

// TestMemoryCOWWarmRestoreAllocates proves the steady-state claim: once
// a fork/dirty/restore loop has warmed the freelist, another iteration
// allocates nothing — privatised slabs are recycled, not reallocated.
func TestMemoryCOWWarmRestoreAllocates(t *testing.T) {
	m := NewMemory()
	for i := 0; i < 4*pageWords; i++ {
		m.WriteWord(Addr(i*WordSize), uint64(i))
	}
	snap := m.Fork()
	trial := func() {
		for p := 0; p < 4; p++ {
			m.WriteWord(Addr(p*pageWords*WordSize), 0xfeed)
		}
		m.Restore(snap)
	}
	trial() // warm the freelist
	if avg := testing.AllocsPerRun(100, trial); avg != 0 {
		t.Errorf("warm dirty-then-restore loop allocates %.1f/op, want 0", avg)
	}
}
