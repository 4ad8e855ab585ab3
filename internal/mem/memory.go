package mem

import "sync/atomic"

// Memory is the sparse backing store of the simulated machine. It holds
// architectural data (the values the victim and attacker programs read
// and write), not timing state — latency is modelled by the hierarchy in
// package memsys.
//
// Storage is word-granular: each 8-byte aligned address maps to a uint64.
// Unwritten words read as zero, matching a zero-initialized physical
// memory.
//
// Internally words live in 4 KiB pages (512 words) indexed through a
// single map keyed by page number, so the hot word accesses of a
// simulation hash once per page-crossing instead of once per word and
// then run on a flat array. Sparseness is preserved at page granularity:
// pages materialise on first write, and a per-page bitmap keeps
// Footprint exact at word granularity.
//
// Pages are shared copy-on-write between memories related by Fork or
// Restore: each page carries an atomic reference count, reads go
// straight to the shared slab, and the first write through any owner
// privatises the page (refs>1 → copy, then write). A snapshot therefore
// costs O(pages touched since the last snapshot), not O(footprint), and
// releasing a fork returns its private slabs to a freelist so a warm
// fork/run/restore loop allocates nothing in steady state.
type Memory struct {
	pages map[Addr]*page
	// lastKey/lastPage memoise the most recently touched page; accesses
	// cluster heavily (programs, eviction sets, probe logs), so most
	// lookups skip the map entirely. lastPage is nil when unset. The
	// write path only trusts the memo for exclusively-owned pages.
	lastKey  Addr
	lastPage *page
	// free holds released slabs (refcount zero) for reuse by this
	// memory's future materialisations and COW copies.
	free []*page
	// footprint counts distinct words ever written (bitmap bits set).
	footprint int
	// writes counts word stores, exposed for tests and statistics.
	writes uint64
	reads  uint64
}

const (
	// pageShift selects 4 KiB pages: 512 words of 8 bytes.
	pageShift = 12
	pageWords = 1 << (pageShift - 3)
)

// page is one 4 KiB slab. written marks which words have ever been
// stored to (including zero stores), so Footprint keeps the exact
// distinct-words-written semantics of the former map design. refs is
// the number of Memory instances whose page table points at the slab;
// a slab with refs>1 is immutable (writers copy first), which is what
// makes concurrent sibling forks race-free: shared slabs are only ever
// read, and a slab can only be recycled once no sibling references it.
type page struct {
	words   [pageWords]uint64
	written [pageWords / 64]uint64
	refs    atomic.Int32
}

// NewMemory returns an empty, zero-initialized memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[Addr]*page)}
}

// lookup returns the page containing the word-aligned addr, or nil if it
// was never written. Read-only: shared pages are served as-is.
func (m *Memory) lookup(aligned Addr) *page {
	key := aligned >> pageShift
	if m.lastPage != nil && key == m.lastKey {
		return m.lastPage
	}
	p := m.pages[key]
	if p != nil {
		m.lastKey, m.lastPage = key, p
	}
	return p
}

// ensure returns an exclusively-owned page containing the word-aligned
// addr, materialising it on first write and privatising it (copy-on-
// write) when the slab is shared with a forked sibling.
func (m *Memory) ensure(aligned Addr) *page {
	key := aligned >> pageShift
	if m.lastPage != nil && key == m.lastKey && m.lastPage.refs.Load() == 1 {
		return m.lastPage
	}
	p := m.pages[key]
	switch {
	case p == nil:
		p = m.newPage()
		m.pages[key] = p
	case p.refs.Load() > 1:
		p = m.cowCopy(key, p)
	}
	m.lastKey, m.lastPage = key, p
	return p
}

// newPage returns a zeroed slab with refcount 1, reusing the freelist
// when possible.
func (m *Memory) newPage() *page {
	p := m.takeFree()
	if p == nil {
		p = &page{}
	} else {
		p.words = [pageWords]uint64{}
		p.written = [pageWords / 64]uint64{}
	}
	p.refs.Store(1)
	return p
}

// cowCopy replaces the shared slab at key with a private copy and drops
// this memory's reference to the shared one. The copy happens before
// the decrement, so a sibling concurrently observing refcount zero (and
// recycling the slab) is ordered after our reads.
func (m *Memory) cowCopy(key Addr, shared *page) *page {
	p := m.takeFree()
	if p == nil {
		p = &page{}
	}
	p.words = shared.words
	p.written = shared.written
	p.refs.Store(1)
	m.pages[key] = p
	m.deref(shared)
	return p
}

func (m *Memory) takeFree() *page {
	n := len(m.free)
	if n == 0 {
		return nil
	}
	p := m.free[n-1]
	m.free[n-1] = nil
	m.free = m.free[:n-1]
	return p
}

// deref drops one reference; the last owner recycles the slab onto its
// freelist.
func (m *Memory) deref(p *page) {
	if p.refs.Add(-1) == 0 {
		m.free = append(m.free, p)
	}
}

// markWritten records a store to word index w of page p, keeping the
// footprint counter exact.
func (m *Memory) markWritten(p *page, w uint64) {
	bit := uint64(1) << (w % 64)
	if p.written[w/64]&bit == 0 {
		p.written[w/64] |= bit
		m.footprint++
	}
}

// ReadWord returns the 8-byte word containing addr.
func (m *Memory) ReadWord(addr Addr) uint64 {
	m.reads++
	aligned := addr.WordAlign()
	p := m.lookup(aligned)
	if p == nil {
		return 0
	}
	return p.words[(uint64(aligned)>>3)%pageWords]
}

// WriteWord stores v into the 8-byte word containing addr.
func (m *Memory) WriteWord(addr Addr, v uint64) {
	m.writes++
	aligned := addr.WordAlign()
	p := m.ensure(aligned)
	w := (uint64(aligned) >> 3) % pageWords
	p.words[w] = v
	m.markWritten(p, w)
}

// LoadByte returns the byte at addr.
func (m *Memory) LoadByte(addr Addr) byte {
	w := m.ReadWord(addr)
	shift := (uint64(addr) % WordSize) * 8
	return byte(w >> shift)
}

// StoreByte stores b at addr without disturbing neighbouring bytes.
func (m *Memory) StoreByte(addr Addr, b byte) {
	aligned := addr.WordAlign()
	shift := (uint64(addr) % WordSize) * 8
	p := m.ensure(aligned)
	w := (uint64(aligned) >> 3) % pageWords
	v := p.words[w]
	v &^= 0xff << shift
	v |= uint64(b) << shift
	m.writes++
	p.words[w] = v
	m.markWritten(p, w)
}

// WriteWords stores consecutive words starting at addr.
func (m *Memory) WriteWords(addr Addr, vs []uint64) {
	for i, v := range vs {
		m.WriteWord(addr+Addr(i*WordSize), v)
	}
}

// ReadWords reads n consecutive words starting at addr.
func (m *Memory) ReadWords(addr Addr, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = m.ReadWord(addr + Addr(i*WordSize))
	}
	return out
}

// Reads returns the number of word reads served so far.
func (m *Memory) Reads() uint64 { return m.reads }

// Writes returns the number of word writes performed so far.
func (m *Memory) Writes() uint64 { return m.writes }

// Footprint returns the number of distinct words ever written.
func (m *Memory) Footprint() int { return m.footprint }

// PageCount returns the number of resident pages.
func (m *Memory) PageCount() int { return len(m.pages) }

// SharedPageCount returns the number of resident pages whose slab is
// shared copy-on-write with another Memory.
func (m *Memory) SharedPageCount() int {
	n := 0
	for _, p := range m.pages {
		if p.refs.Load() > 1 {
			n++
		}
	}
	return n
}

// Fork returns a new Memory that shares every page with m copy-on-write
// and inherits m's footprint and access counters, so the fork is an
// observably bit-identical continuation of m. Cost is O(resident pages)
// map inserts — no slab is copied until one side writes.
//
// Forks must be taken from the goroutine that owns m; afterwards the
// two memories may run on different goroutines (shared slabs are
// immutable and refcounts are atomic).
func (m *Memory) Fork() *Memory {
	c := &Memory{pages: make(map[Addr]*page, len(m.pages))}
	for k, p := range m.pages {
		p.refs.Add(1)
		c.pages[k] = p
	}
	c.footprint = m.footprint
	c.reads = m.reads
	c.writes = m.writes
	return c
}

// Restore rewinds m to the contents, footprint and access counters of
// src (typically a frozen Fork), sharing src's pages copy-on-write.
// Pages m still shares with src are kept as-is, so the cost is
// O(resident pages) plus recycling of the slabs m privatised since the
// fork — not a byte of page data is copied.
func (m *Memory) Restore(src *Memory) {
	for k, p := range m.pages {
		if src.pages[k] != p {
			delete(m.pages, k)
			m.deref(p)
		}
	}
	for k, p := range src.pages {
		if m.pages[k] != p {
			p.refs.Add(1)
			m.pages[k] = p
		}
	}
	m.footprint = src.footprint
	m.reads = src.reads
	m.writes = src.writes
	m.lastKey, m.lastPage = 0, nil
}

// Release drops every page reference and the freelist, returning shared
// slabs to their surviving owners. A released memory is empty but still
// usable; call it when discarding a fork so sibling refcounts return
// to 1.
func (m *Memory) Release() {
	for k, p := range m.pages {
		delete(m.pages, k)
		p.refs.Add(-1) // last owner's slab is garbage, not freelisted
	}
	m.free = nil
	m.footprint = 0
	m.reads = 0
	m.writes = 0
	m.lastKey, m.lastPage = 0, nil
}
