package mem

import "testing"

// TestPageBoundaryAccess writes and reads words straddling every
// interesting boundary of the paged layout: first/last word of a page,
// adjacent words in neighbouring pages, and bytes inside them.
func TestPageBoundaryAccess(t *testing.T) {
	m := NewMemory()
	lastWord := Addr((pageWords - 1) * WordSize) // last word of page 0
	firstNext := lastWord + WordSize             // first word of page 1

	m.WriteWord(lastWord, 0x1111)
	m.WriteWord(firstNext, 0x2222)
	if got := m.ReadWord(lastWord); got != 0x1111 {
		t.Fatalf("last word of page 0 = %#x, want 0x1111", got)
	}
	if got := m.ReadWord(firstNext); got != 0x2222 {
		t.Fatalf("first word of page 1 = %#x, want 0x2222", got)
	}

	// Bytes inside the boundary words survive neighbouring writes.
	m.StoreByte(firstNext+3, 0xab)
	if got := m.LoadByte(firstNext + 3); got != 0xab {
		t.Fatalf("byte at page-1 word = %#x, want 0xab", got)
	}
	if got := m.ReadWord(firstNext); got != 0x2222|0xab<<24 {
		t.Fatalf("word after byte store = %#x", got)
	}
	if got := m.ReadWord(lastWord); got != 0x1111 {
		t.Fatalf("page-0 word disturbed by page-1 byte store: %#x", got)
	}

	// A far page materialises independently; untouched pages read zero.
	far := Addr(1) << 40
	m.WriteWord(far, 7)
	if got := m.ReadWord(far); got != 7 {
		t.Fatalf("far page word = %d, want 7", got)
	}
	if got := m.ReadWord(far + Addr(pageWords*WordSize)); got != 0 {
		t.Fatalf("page after far page should read zero, got %d", got)
	}
}

// TestFootprintCountsDistinctWords pins the Footprint contract the
// former map design gave for free: distinct words ever written,
// including explicit zero writes, never double-counting rewrites.
func TestFootprintCountsDistinctWords(t *testing.T) {
	m := NewMemory()
	if m.Footprint() != 0 {
		t.Fatalf("fresh memory footprint = %d", m.Footprint())
	}
	m.WriteWord(0x100, 1)
	m.WriteWord(0x100, 2) // rewrite: no growth
	m.WriteWord(0x108, 0) // zero write still counts
	m.StoreByte(0x110, 9) // byte store marks its word
	m.StoreByte(0x111, 9) // same word: no growth
	if got := m.Footprint(); got != 3 {
		t.Fatalf("footprint = %d, want 3", got)
	}
	// Reads never grow the footprint, even on materialised pages.
	m.ReadWord(0x118)
	m.ReadWord(0x100000)
	if got := m.Footprint(); got != 3 {
		t.Fatalf("footprint after reads = %d, want 3", got)
	}
}

// TestMemoryReset checks that restoring a fork taken of the empty
// memory brings back zero-initialized semantics while keeping
// subsequent use correct.
func TestMemoryReset(t *testing.T) {
	m := NewMemory()
	empty := m.Fork()
	m.WriteWord(0x40, 0xdead)
	m.StoreByte(0x2000, 0xff)
	m.ReadWord(0x40)
	m.Restore(empty)
	if m.Footprint() != 0 || m.Reads() != 0 || m.Writes() != 0 {
		t.Fatalf("restore to empty left footprint=%d reads=%d writes=%d",
			m.Footprint(), m.Reads(), m.Writes())
	}
	if got := m.ReadWord(0x40); got != 0 {
		t.Fatalf("word survived restore: %#x", got)
	}
	if got := m.LoadByte(0x2000); got != 0 {
		t.Fatalf("byte survived restore: %#x", got)
	}
	m.WriteWord(0x40, 5)
	if got, fp := m.ReadWord(0x40), m.Footprint(); got != 5 || fp != 1 {
		t.Fatalf("post-restore write: word=%d footprint=%d", got, fp)
	}
}

// TestCloneIsDeep verifies writes to a fork never leak into the
// original (and vice versa), although the two share pages
// copy-on-write.
func TestCloneIsDeep(t *testing.T) {
	m := NewMemory()
	m.WriteWord(0x40, 1)
	c := m.Fork()
	if c.Footprint() != m.Footprint() {
		t.Fatalf("clone footprint %d != %d", c.Footprint(), m.Footprint())
	}
	c.WriteWord(0x40, 2)
	c.WriteWord(0x48, 3)
	if got := m.ReadWord(0x40); got != 1 {
		t.Fatalf("clone write leaked into original: %d", got)
	}
	m.WriteWord(0x50, 4)
	if got := c.ReadWord(0x50); got != 0 {
		t.Fatalf("original write leaked into clone: %d", got)
	}
}
