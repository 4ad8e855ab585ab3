package mem

import (
	"testing"
	"testing/quick"
)

func TestLineArithmetic(t *testing.T) {
	cases := []struct {
		addr   Addr
		line   Addr
		offset uint64
	}{
		{0, 0, 0},
		{1, 0, 1},
		{63, 0, 63},
		{64, 64, 0},
		{65, 64, 1},
		{0x1234, 0x1200, 0x34},
		{0xffffffffffffffff, 0xffffffffffffffc0, 63},
	}
	for _, c := range cases {
		if got := c.addr.Line(); got != c.line {
			t.Errorf("Line(%s) = %s, want %s", c.addr, got, c.line)
		}
		if got := c.addr.Offset(); got != c.offset {
			t.Errorf("Offset(%s) = %d, want %d", c.addr, got, c.offset)
		}
	}
}

func TestSameLine(t *testing.T) {
	if !Addr(0).SameLine(63) {
		t.Error("0 and 63 should share a line")
	}
	if Addr(63).SameLine(64) {
		t.Error("63 and 64 should not share a line")
	}
}

func TestSetIndexTagRoundTrip(t *testing.T) {
	f := func(raw uint64, setsExp uint8) bool {
		sets := 1 << (setsExp%10 + 1) // 2..1024 sets
		a := Addr(raw).Line()
		set := a.SetIndex(sets)
		tag := a.Tag(sets)
		return FromSetTag(sets, set, tag) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSetIndexRange(t *testing.T) {
	const sets = 64
	for i := 0; i < 4096; i++ {
		a := Addr(i * LineSize)
		if s := a.SetIndex(sets); s >= sets {
			t.Fatalf("set index %d out of range for %d sets", s, sets)
		}
	}
}

func TestConsecutiveLinesCoverAllSets(t *testing.T) {
	const sets = 64
	seen := map[uint64]bool{}
	for i := 0; i < sets; i++ {
		seen[Addr(i*LineSize).SetIndex(sets)] = true
	}
	if len(seen) != sets {
		t.Fatalf("64 consecutive lines covered %d sets, want %d", len(seen), sets)
	}
}

func TestMemoryZeroInitialized(t *testing.T) {
	m := NewMemory()
	if v := m.ReadWord(0x1000); v != 0 {
		t.Fatalf("fresh memory read %d, want 0", v)
	}
}

func TestMemoryWordReadWrite(t *testing.T) {
	m := NewMemory()
	m.WriteWord(0x40, 0xdeadbeef)
	if v := m.ReadWord(0x40); v != 0xdeadbeef {
		t.Fatalf("got %#x, want 0xdeadbeef", v)
	}
	// Unaligned read within the same word sees the same value.
	if v := m.ReadWord(0x43); v != 0xdeadbeef {
		t.Fatalf("unaligned got %#x, want 0xdeadbeef", v)
	}
	// The neighbouring word is untouched.
	if v := m.ReadWord(0x48); v != 0 {
		t.Fatalf("neighbour got %#x, want 0", v)
	}
}

func TestMemoryByteAccess(t *testing.T) {
	m := NewMemory()
	m.WriteWord(0x100, 0x8877665544332211)
	for i, want := range []byte{0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88} {
		if got := m.LoadByte(0x100 + Addr(i)); got != want {
			t.Errorf("byte %d: got %#x, want %#x", i, got, want)
		}
	}
	m.StoreByte(0x103, 0xAA)
	if got := m.ReadWord(0x100); got != 0x88776655AA332211 {
		t.Fatalf("after StoreByte got %#x", got)
	}
}

func TestMemoryBulk(t *testing.T) {
	m := NewMemory()
	vals := []uint64{1, 2, 3, 4, 5}
	m.WriteWords(0x200, vals)
	got := m.ReadWords(0x200, 5)
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("word %d: got %d, want %d", i, got[i], vals[i])
		}
	}
}

func TestMemoryClone(t *testing.T) {
	m := NewMemory()
	m.WriteWord(8, 42)
	c := m.Fork()
	c.WriteWord(8, 99)
	if m.ReadWord(8) != 42 {
		t.Fatal("fork mutation leaked into original")
	}
	if c.ReadWord(8) != 99 {
		t.Fatal("fork write lost")
	}
}

func TestMemoryCounters(t *testing.T) {
	m := NewMemory()
	m.WriteWord(0, 1)
	m.WriteWord(8, 2)
	m.ReadWord(0)
	if m.Writes() != 2 || m.Reads() != 1 {
		t.Fatalf("counters writes=%d reads=%d, want 2/1", m.Writes(), m.Reads())
	}
	if m.Footprint() != 2 {
		t.Fatalf("footprint %d, want 2", m.Footprint())
	}
}

func TestByteRoundTripProperty(t *testing.T) {
	f := func(addr uint32, b byte) bool {
		m := NewMemory()
		a := Addr(addr)
		m.StoreByte(a, b)
		return m.LoadByte(a) == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
