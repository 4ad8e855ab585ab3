package cpu

import (
	"math/bits"

	"repro/internal/isa"
)

// This file holds the event-side state of the core: what fetch decodes
// once per instruction, the rename table, the dependents lists that
// carry wakeups, the per-slot bitmaps the stages select from, and the
// completion heap. All of it is derived from the ROB window, sized in
// New, and rebuilt from the window by RestoreState.

// slotSched is the event-side record of one ROB slot, filled at fetch.
type slotSched struct {
	src [2]isa.Reg // decoded source registers; isa.Zero = unused
	dst isa.Reg    // decoded destination; isa.Zero = none

	// pending counts the sources whose producer has not completed. Such
	// a source k is linked into its producer's dependents list through
	// next[k].
	pending uint8
	// completed is set once the entry's doneAt has been reached and its
	// dependents woken.
	completed bool

	// opnd holds each source's value once its producer has completed:
	// read at fetch from a completed producer or, with no writer in
	// flight, from the register file (nothing older can write it
	// before issue); otherwise delivered by the producer's wakeup.
	opnd [2]uint64
	// prod names each source's producer: the youngest older in-flight
	// writer at fetch.
	prod [2]slotRef
	next [2]int32
	// deps heads this entry's own dependents list: links are
	// consumer slot<<1 | source index, youngest consumer first, -1 ends.
	deps int32

	// prev is the rename-table entry this instruction's write shadowed,
	// put back if it is squashed.
	prev slotRef
}

// slotRef names a ROB slot as slot+1, so the zero value names none. The
// rename table holds only instructions in the window: retire clears the
// entry naming a retiring instruction, and a squash puts back a shadowed
// writer only if it survives.
type slotRef int32

func ref(p int) slotRef { return slotRef(p + 1) }

func (r slotRef) slot() int { return int(r) - 1 }

// opSrcs and opWrites decode an op's register operands — how many of
// Rs, Rt it reads, and whether it writes Rd — from the ISA's own
// SrcRegs/DstReg, once per op rather than once per fetch.
var opSrcs, opWrites = func() (n [256]uint8, w [256]bool) {
	for op := range n {
		inst := isa.Inst{Op: isa.Op(op), Rd: 3, Rs: 1, Rt: 2}
		n[op] = uint8(len(inst.SrcRegs()))
		_, w[op] = inst.DstReg()
	}
	return n, w
}()

// wakeEvent is a completion-heap element: slot's doneAt.
type wakeEvent struct {
	at   uint64
	slot int32
}

// bitmap is a set of ROB slots, one bit per slot.
type bitmap []uint64

func (b bitmap) set(p int)   { b[p>>6] |= 1 << (p & 63) }
func (b bitmap) clear(p int) { b[p>>6] &^= 1 << (p & 63) }

// first returns the lowest member in [lo, hi), or hi.
func (b bitmap) first(lo, hi int) int {
	for lo < hi {
		if w := b[lo>>6] >> (lo & 63); w != 0 {
			return min(lo+bits.TrailingZeros64(w), hi)
		}
		lo = (lo | 63) + 1
	}
	return hi
}

// last returns the highest member in [lo, hi), or -1.
func (b bitmap) last(lo, hi int) int {
	for hi > lo {
		top := hi - 1
		if w := b[top>>6] << (63 - top&63); w != 0 {
			if t := top - bits.LeadingZeros64(w); t >= lo {
				return t
			}
			return -1
		}
		hi = top &^ 63
	}
	return -1
}

// nth returns the n-th (1-based) member in [lo, hi) and 0, or hi and
// what is left of n after the range's members.
func (b bitmap) nth(lo, hi, n int) (int, int) {
	for lo < hi {
		w := b[lo>>6] >> (lo & 63)
		span := 64 - lo&63
		if hi-lo < span {
			span = hi - lo
			w &= 1<<span - 1
		}
		if k := bits.OnesCount64(w); k < n {
			n -= k
			lo += span
			continue
		}
		for ; n > 1; n-- {
			w &= w - 1
		}
		return lo + bits.TrailingZeros64(w), 0
	}
	return hi, n
}

// numSets is the number of per-slot bitmaps in CPU.sets.
const numSets = 7

// allocSched sizes the ring and every event-side structure from ROBSize.
func (c *CPU) allocSched() {
	n := 1
	for n < c.cfg.ROBSize {
		n <<= 1
	}
	c.rob = make([]entry, n)
	c.sch = make([]slotSched, n)
	c.mask = n - 1
	w := (n + 63) / 64
	// Whole cache lines: the words are written every cycle, and a line
	// shared with another core's allocation would bounce between the
	// engine's workers.
	c.sets = make([]uint64, (numSets*w+7)&^7)
	for i, b := range []*bitmap{&c.unissued, &c.ready, &c.fences, &c.stores, &c.loads, &c.specLoads, &c.casters} {
		*b = c.sets[i*w : (i+1)*w]
	}
	c.events = make([]wakeEvent, 0, n)
	c.due = make([]int32, 0, n)
}

// resetSched empties the event-side state for an empty window.
func (c *CPU) resetSched() {
	clear(c.sets)
	c.rename = [isa.NumRegs]slotRef{}
	c.events = c.events[:0]
	c.due = c.due[:0]
	c.nDone = 0
	c.nFences = 0
	c.nUnissued = 0
}

// slot returns the ring slot of window position i.
func (c *CPU) slot(i int) int { return (c.robHead + i) & c.mask }

// pos returns the window position of ring slot p.
func (c *CPU) pos(p int) int { return (p - c.robHead) & c.mask }

// nextPos returns the window position of the first member of b at or
// after window position i, or robLen. Only window slots are ever
// members, so the ring is searched without bounds on the window's tail.
func (c *CPU) nextPos(b bitmap, i int) int {
	if i >= c.robLen {
		return c.robLen
	}
	s, ring := c.slot(i), c.mask+1
	end := s + c.robLen - i
	if end <= ring {
		return i + b.first(s, end) - s
	}
	if t := b.first(s, ring); t < ring {
		return i + t - s
	}
	return i + ring - s + b.first(0, end-ring)
}

// prevPos returns the window position of the last member of b before
// window position i, or -1.
func (c *CPU) prevPos(b bitmap, i int) int {
	h, ring := c.robHead, c.mask+1
	end := h + i
	if end > ring {
		if t := b.last(0, end-ring); t >= 0 {
			return ring - h + t
		}
		end = ring
	}
	if t := b.last(h, end); t >= 0 {
		return t - h
	}
	return -1
}

// nthPos returns the window position of the n-th (1-based) member of b,
// or robLen if b has fewer members.
func (c *CPU) nthPos(b bitmap, n int) int {
	h, ring := c.robHead, c.mask+1
	end := h + c.robLen
	if end > ring {
		t, rest := b.nth(h, ring, n)
		if rest == 0 {
			return t - h
		}
		if t, rest = b.nth(0, end-ring, rest); rest == 0 {
			return ring - h + t
		}
		return c.robLen
	}
	if t, rest := b.nth(h, end, n); rest == 0 {
		return t - h
	}
	return c.robLen
}

// clearSlot drops slot p from every bitmap.
func (c *CPU) clearSlot(p int) {
	w, m := p>>6, ^(uint64(1) << (p & 63))
	for i := 0; i < numSets; i++ {
		c.sets[i*len(c.unissued)+w] &= m
	}
}

// dispatch decodes the just-fetched entry in slot p, renames its
// sources, links it into the dependents lists of producers that have not
// completed, and enters it into the bitmaps its op belongs to.
func (c *CPU) dispatch(p int) {
	e := &c.rob[p]
	op := e.inst.Op
	// The record is built in locals and stored once: mixing narrow and
	// wide stores to the same fields and reading them back stalls.
	var src [2]isa.Reg
	switch opSrcs[op] {
	case 2:
		src[1] = e.inst.Rt
		fallthrough
	case 1:
		src[0] = e.inst.Rs
	default:
		// Reads no register.
	}
	dst := isa.Zero
	if opWrites[op] {
		dst = e.inst.Rd
	}
	s := &c.sch[p]
	var opnd [2]uint64
	var prod [2]slotRef
	var pending uint8
	for k, r := range src {
		if r == isa.Zero {
			continue
		}
		t := c.rename[r]
		if t == 0 {
			opnd[k] = c.regs[r]
			continue
		}
		prod[k] = t
		ps := &c.sch[t.slot()]
		if ps.completed {
			opnd[k] = c.rob[t.slot()].val
			continue
		}
		pending++
		s.next[k] = ps.deps
		ps.deps = int32(p<<1 | k)
	}
	s.src, s.dst, s.pending, s.completed = src, dst, pending, false
	s.opnd, s.prod, s.deps = opnd, prod, -1
	if dst != isa.Zero {
		s.prev = c.rename[dst]
		c.rename[dst] = ref(p)
	}
	c.unissued.set(p)
	c.nUnissued++
	if pending == 0 {
		c.ready.set(p)
	}
	switch {
	case op == isa.OpLoad:
		c.loads.set(p)
	case op == isa.OpStore || op == isa.OpFlush:
		c.stores.set(p)
	case op == isa.OpFence:
		c.fences.set(p)
		c.nFences++
	case op == isa.OpDiv || op.IsBranch():
		c.casters.set(p)
	}
}

// linked reports whether source k of the entry at window position i,
// in slot p, is still linked into its producer's dependents list: the
// producer is older in the window and has not completed.
func (c *CPU) linked(i, p, k int) bool {
	t := c.sch[p].prod[k]
	return t != 0 && c.pos(t.slot()) < i && !c.sch[t.slot()].completed
}

// markIssued takes slot p out of the unissued and ready sets.
func (c *CPU) markIssued(p int) {
	c.unissued.clear(p)
	c.ready.clear(p)
	c.nUnissued--
}

// scheduleDone queues the completion of the just-issued entry in slot p:
// a doneAt still ahead goes on the completion heap; one already reached
// wakes its dependents at once, so younger consumers can issue in the
// same pass.
func (c *CPU) scheduleDone(p int) {
	if at := c.rob[p].doneAt; at > c.cycle {
		c.pushEvent(at, p)
	} else {
		c.wake(p)
	}
}

// wake completes slot p: its dependents receive its value and lose one
// pending source each, joining the ready set at zero, and a branch
// becomes due for resolution.
func (c *CPU) wake(p int) {
	s := &c.sch[p]
	s.completed = true
	e := &c.rob[p]
	if e.inst.Op.IsBranch() && !e.is(fResolved) {
		c.due = append(c.due, int32(p))
	}
	for l := s.deps; l >= 0; {
		q, k := int(l>>1), l&1
		cs := &c.sch[q]
		l = cs.next[k]
		cs.opnd[k] = e.val
		cs.pending--
		if cs.pending == 0 {
			c.ready.set(q)
		}
	}
	s.deps = -1
}

// sortDue orders the due branches oldest first (the list is short).
func (c *CPU) sortDue() {
	for i := 1; i < len(c.due); i++ {
		v := c.due[i]
		pv := c.pos(int(v))
		j := i
		for ; j > 0 && c.pos(int(c.due[j-1])) > pv; j-- {
			c.due[j] = c.due[j-1]
		}
		c.due[j] = v
	}
}

// popROB retires the head entry from the live window. By now it has
// left every set but loads/stores (a fence that completed and retired
// while issue was stalled also leaves the unissued set), and the rename
// table forgets it if it is still the youngest writer of its register.
func (c *CPU) popROB() {
	p := c.robHead
	switch e := &c.rob[p]; e.inst.Op {
	case isa.OpLoad:
		c.loads.clear(p)
	case isa.OpStore, isa.OpFlush:
		c.stores.clear(p)
	case isa.OpFence:
		if !e.is(fIssued) {
			c.markIssued(p)
		}
	default:
		// Other ops are in none of the sets by now.
	}
	if rd := c.sch[p].dst; rd != isa.Zero && c.rename[rd] == ref(p) {
		c.rename[rd] = 0
	}
	c.robHead = (p + 1) & c.mask
	c.robLen--
	if c.nDone > 0 {
		c.nDone--
	}
}

// discardAfter drops every entry younger than window position i. Each
// discarded entry is undone youngest first: its linked sources are
// unlinked, which always takes the head of the producer's dependents
// list because younger consumers sit in front, and its rename is put
// back if the shadowed writer is still in the window.
func (c *CPU) discardAfter(i int) {
	for j := c.robLen - 1; j > i; j-- {
		p := c.slot(j)
		s := &c.sch[p]
		for k := 1; k >= 0; k-- {
			if c.linked(j, p, k) {
				c.sch[s.prod[k].slot()].deps = s.next[k]
			}
		}
		if s.dst != isa.Zero {
			// The shadowed writer was in the window when this one was
			// fetched. If it has since retired, its slot now lies
			// outside the window or holds an entry younger than this
			// one, so either way past position i.
			prev := s.prev
			if prev != 0 && c.pos(prev.slot()) > i {
				prev = 0
			}
			c.rename[s.dst] = prev
		}
		e := &c.rob[p]
		if !e.is(fIssued) {
			c.nUnissued--
		}
		if e.inst.Op == isa.OpFence && !e.is(fDone) {
			c.nFences--
		}
		c.clearSlot(p)
	}
	kept := c.events[:0]
	for _, ev := range c.events {
		if c.pos(int(ev.slot)) <= i {
			kept = append(kept, ev)
		}
	}
	c.events = kept
	for k := len(kept)/2 - 1; k >= 0; k-- {
		c.siftDown(k)
	}
	c.robLen = i + 1
	c.nDone = min(c.nDone, c.robLen)
}

// rebuild derives the event-side state from the window in one pass in
// program order, as if each entry had been fetched in turn and had then
// made the progress its flags record by the current cycle.
func (c *CPU) rebuild() {
	c.resetSched()
	for i := 0; i < c.robLen; i++ {
		p := c.slot(i)
		e := &c.rob[p]
		c.dispatch(p)
		if e.is(fIssued) {
			// Its producers had all completed when it issued, so
			// dispatch linked none of its sources.
			c.markIssued(p)
			if e.doneAt < c.cycle {
				c.sch[p].completed = true
				if e.inst.Op.IsBranch() && !e.is(fResolved) {
					c.due = append(c.due, int32(p))
				}
			} else {
				c.events = append(c.events, wakeEvent{at: e.doneAt, slot: int32(p)})
			}
		}
		switch op := e.inst.Op; {
		case op == isa.OpFence && e.is(fDone):
			c.fences.clear(p)
			c.nFences--
		case op.IsBranch() && e.is(fResolved), op == isa.OpDiv && e.is(fIssued) && !e.is(fFaulting):
			c.casters.clear(p)
		case op == isa.OpLoad && e.is(fSpecAtIssue) && !e.is(fCommittedSpec):
			c.specLoads.set(p)
		}
	}
	for k := len(c.events)/2 - 1; k >= 0; k-- {
		c.siftDown(k)
	}
}

// pushEvent adds slot p's completion at cycle at to the heap.
func (c *CPU) pushEvent(at uint64, p int) {
	c.events = append(c.events, wakeEvent{at: at, slot: int32(p)})
	h := c.events
	for k := len(h) - 1; k > 0; {
		up := (k - 1) / 2
		if h[up].at <= h[k].at {
			break
		}
		h[up], h[k] = h[k], h[up]
		k = up
	}
}

// popEvent removes the earliest completion from the heap and returns its
// slot.
func (c *CPU) popEvent() int {
	h := c.events
	p := int(h[0].slot)
	last := len(h) - 1
	h[0] = h[last]
	c.events = h[:last]
	c.siftDown(0)
	return p
}

func (c *CPU) siftDown(k int) {
	h := c.events
	for {
		l := 2*k + 1
		if l >= len(h) {
			return
		}
		if r := l + 1; r < len(h) && h[r].at < h[l].at {
			l = r
		}
		if h[k].at <= h[l].at {
			return
		}
		h[k], h[l] = h[l], h[k]
		k = l
	}
}
