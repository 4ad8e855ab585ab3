package cpu

import (
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/memsys"
)

// entryFlags packs the per-entry booleans of a ROB entry into one word
// so the hot stage scans (issue readiness, completion checks, wakeup
// prediction) touch a single dense array instead of striding over wide
// records.
type entryFlags uint16

const (
	fIssued entryFlags = 1 << iota
	fDone
	fPredTaken
	fResolved
	fAddrResolved
	fSpecAtIssue
	fCommittedSpec
	fShadowed
	fSquashed
	fFaulting
)

// Arena is the struct-of-arrays backing store for ROB entries. Each
// logical entry is one index across the parallel slices; the core's
// live window is the contiguous range [robHead, robHead+robLen). The
// layout exists for the batch engine's hot loop: the per-cycle scans
// (issue, completion, nextWakeup) read only the narrow arrays they
// need — flags, doneAt, seq — so a 192-entry window costs a couple of
// cache lines per pass instead of a stride over ~150-byte records.
//
// An Arena holds no simulation semantics of its own and allocates only
// on construction and growth, so a batch worker can own one Arena and
// run every trial of every batch through it with zero steady-state
// allocation (see internal/engine and docs/ENGINE.md).
type Arena struct {
	seq           []uint64
	idx           []int // instruction index (simulated PC)
	inst          []isa.Inst
	fetchedAt     []uint64
	flags         []entryFlags
	doneAt        []uint64
	val           []uint64
	srcA          []uint64 // captured at issue for branch resolution and stores
	srcB          []uint64
	addr          []mem.Addr
	specEpoch     []uint64
	commitPenalty []int
	access        []memsys.AccessResult
}

// NewArena returns an arena able to back a core with the given ROB
// size. The backing slices are 2×robSize so head pops are O(1) and
// compaction on push is amortized, exactly like the pre-SoA ring.
func NewArena(robSize int) *Arena {
	a := &Arena{}
	a.Ensure(robSize)
	return a
}

// Ensure grows the arena to back a ROB of at least robSize entries,
// preserving existing contents. Growth happens only between runs
// (the ROB is architecturally bounded during a run), so the copy is
// cold-path.
func (a *Arena) Ensure(robSize int) {
	n := 2 * robSize
	if len(a.seq) >= n {
		return
	}
	a.seq = growCopy(a.seq, n)
	a.idx = growCopy(a.idx, n)
	a.inst = growCopy(a.inst, n)
	a.fetchedAt = growCopy(a.fetchedAt, n)
	a.flags = growCopy(a.flags, n)
	a.doneAt = growCopy(a.doneAt, n)
	a.val = growCopy(a.val, n)
	a.srcA = growCopy(a.srcA, n)
	a.srcB = growCopy(a.srcB, n)
	a.addr = growCopy(a.addr, n)
	a.specEpoch = growCopy(a.specEpoch, n)
	a.commitPenalty = growCopy(a.commitPenalty, n)
	a.access = growCopy(a.access, n)
}

// Cap returns the largest ROB size the arena currently backs.
func (a *Arena) Cap() int { return len(a.seq) / 2 }

func growCopy[T any](s []T, n int) []T {
	out := make([]T, n)
	copy(out, s)
	return out
}

// is reports whether flag f is set on entry p.
func (a *Arena) is(p int, f entryFlags) bool { return a.flags[p]&f != 0 }

// set sets flag f on entry p.
func (a *Arena) set(p int, f entryFlags) { a.flags[p] |= f }

// reset zeroes entry p — the SoA equivalent of `*e = entry{}`.
func (a *Arena) reset(p int) {
	a.seq[p] = 0
	a.idx[p] = 0
	a.inst[p] = isa.Inst{}
	a.fetchedAt[p] = 0
	a.flags[p] = 0
	a.doneAt[p] = 0
	a.val[p] = 0
	a.srcA[p] = 0
	a.srcB[p] = 0
	a.addr[p] = 0
	a.specEpoch[p] = 0
	a.commitPenalty[p] = 0
	a.access[p] = memsys.AccessResult{}
}

// compact moves the live window [head, head+n) to the front of every
// backing slice. Called when a push reaches the end of the 2×ROBSize
// buffers; each entry is copied at most once per window traversal —
// amortized O(1), as before the SoA split.
func (a *Arena) compact(head, n int) {
	copy(a.seq, a.seq[head:head+n])
	copy(a.idx, a.idx[head:head+n])
	copy(a.inst, a.inst[head:head+n])
	copy(a.fetchedAt, a.fetchedAt[head:head+n])
	copy(a.flags, a.flags[head:head+n])
	copy(a.doneAt, a.doneAt[head:head+n])
	copy(a.val, a.val[head:head+n])
	copy(a.srcA, a.srcA[head:head+n])
	copy(a.srcB, a.srcB[head:head+n])
	copy(a.addr, a.addr[head:head+n])
	copy(a.specEpoch, a.specEpoch[head:head+n])
	copy(a.commitPenalty, a.commitPenalty[head:head+n])
	copy(a.access, a.access[head:head+n])
}

// load materialises entry p as a value record (the State capture form).
func (a *Arena) load(p int) entry {
	return entry{
		seq:           a.seq[p],
		idx:           a.idx[p],
		inst:          a.inst[p],
		fetchedAt:     a.fetchedAt[p],
		issued:        a.is(p, fIssued),
		done:          a.is(p, fDone),
		doneAt:        a.doneAt[p],
		val:           a.val[p],
		srcVals:       [2]uint64{a.srcA[p], a.srcB[p]},
		predTaken:     a.is(p, fPredTaken),
		resolved:      a.is(p, fResolved),
		addr:          a.addr[p],
		addrResolved:  a.is(p, fAddrResolved),
		access:        a.access[p],
		specAtIssue:   a.is(p, fSpecAtIssue),
		specEpoch:     a.specEpoch[p],
		committedSpec: a.is(p, fCommittedSpec),
		commitPenalty: a.commitPenalty[p],
		shadowed:      a.is(p, fShadowed),
		squashed:      a.is(p, fSquashed),
		faulting:      a.is(p, fFaulting),
	}
}

// store writes a value record into entry p (State restore).
func (a *Arena) store(p int, e entry) {
	a.seq[p] = e.seq
	a.idx[p] = e.idx
	a.inst[p] = e.inst
	a.fetchedAt[p] = e.fetchedAt
	var f entryFlags
	if e.issued {
		f |= fIssued
	}
	if e.done {
		f |= fDone
	}
	if e.predTaken {
		f |= fPredTaken
	}
	if e.resolved {
		f |= fResolved
	}
	if e.addrResolved {
		f |= fAddrResolved
	}
	if e.specAtIssue {
		f |= fSpecAtIssue
	}
	if e.committedSpec {
		f |= fCommittedSpec
	}
	if e.shadowed {
		f |= fShadowed
	}
	if e.squashed {
		f |= fSquashed
	}
	if e.faulting {
		f |= fFaulting
	}
	a.flags[p] = f
	a.doneAt[p] = e.doneAt
	a.val[p] = e.val
	a.srcA[p] = e.srcVals[0]
	a.srcB[p] = e.srcVals[1]
	a.addr[p] = e.addr
	a.specEpoch[p] = e.specEpoch
	a.commitPenalty[p] = e.commitPenalty
	a.access[p] = e.access
}
