// Package cache implements one level of a set-associative cache: lookup,
// fill, invalidate, flush, replacement policies, NoMo way partitioning,
// and an MSHR file. Hierarchy wiring lives in package memsys.
//
// CleanupSpec (the Undo defense this repository attacks) mandates a
// random replacement policy for the protected L1 so that replacement
// state itself is not a side channel; LRU and tree-PLRU are provided for
// the unsafe baseline and for ablation experiments.
package cache

import (
	"math/rand"

	"repro/internal/detrand"
)

// ReplacementPolicy decides which way of a set to evict. Implementations
// keep any per-set metadata themselves, keyed by set index.
type ReplacementPolicy interface {
	// Name identifies the policy in stats and test output.
	Name() string
	// OnAccess notifies the policy that (set, way) was hit.
	OnAccess(set, way int)
	// OnFill notifies the policy that (set, way) was filled.
	OnFill(set, way int)
	// OnInvalidate notifies the policy that (set, way) was invalidated.
	OnInvalidate(set, way int)
	// Victim picks a way to evict among candidates (all valid). The
	// candidate slice is never empty and lists the ways eligible for
	// eviction after partitioning constraints are applied.
	Victim(set int, candidates []int) int
}

// lruPolicy is true LRU. Each way's entry in the recency array is the
// version at which it was last filled or hit: a larger stamp is more
// recent, and 0 means the way is not in the recency order (never
// touched, or invalidated since). Versions only grow, even across
// RestoreState, so a restored order stays below every later use.
type lruPolicy struct {
	used setArray[uint64]
}

// NewLRU returns a least-recently-used policy for sets×ways.
func NewLRU(sets, ways int) ReplacementPolicy {
	return &lruPolicy{used: newSetArray[uint64](sets, ways)}
}

func (p *lruPolicy) Name() string { return "lru" }

// SaveState captures the recency stamps of every set used so far.
func (p *lruPolicy) SaveState() any { return p.used.save() }

// RestoreState rewinds the recency order to a saved snapshot, writing
// back only sets mutated since it was taken.
func (p *lruPolicy) RestoreState(v any) { p.used.restore(v.(setsCopy[uint64])) }

func (p *lruPolicy) touch(set, way int) {
	p.used.touch(set)
	p.used.set(set)[way] = p.used.version
}

func (p *lruPolicy) OnAccess(set, way int) { p.touch(set, way) }
func (p *lruPolicy) OnFill(set, way int)   { p.touch(set, way) }

func (p *lruPolicy) OnInvalidate(set, way int) {
	if u := p.used.set(set); u[way] != 0 {
		u[way] = 0
		p.used.touch(set)
	}
}

// Victim picks the least recently used candidate; when no candidate is
// in the recency order it evicts the first.
func (p *lruPolicy) Victim(set int, candidates []int) int {
	u := p.used.set(set)
	victim := candidates[0]
	for _, w := range candidates {
		if u[w] != 0 && (u[victim] == 0 || u[w] < u[victim]) {
			victim = w
		}
	}
	return victim
}

// randomPolicy picks a uniformly random victim using a seeded source, as
// CleanupSpec requires for the protected L1. The source is wrapped in a
// detrand.CountingSource so the victim stream's exact position can be
// snapshotted as one integer and restored by reseed-and-replay.
type randomPolicy struct {
	src *detrand.CountingSource
	rng *rand.Rand
}

// NewRandom returns a random-replacement policy seeded deterministically
// so simulations are reproducible.
func NewRandom(seed int64) ReplacementPolicy {
	src := detrand.NewCountingSource(seed)
	return &randomPolicy{src: src, rng: rand.New(src)}
}

func (p *randomPolicy) Name() string { return "random" }

// SaveState captures the victim stream position.
func (p *randomPolicy) SaveState() any { return p.src.Draws() }

// RestoreState rewinds or fast-forwards the victim stream to a saved
// position without reallocating the generator.
func (p *randomPolicy) RestoreState(v any)        { p.src.SeekTo(v.(uint64)) }
func (p *randomPolicy) OnAccess(set, way int)     {}
func (p *randomPolicy) OnFill(set, way int)       {}
func (p *randomPolicy) OnInvalidate(set, way int) {}
func (p *randomPolicy) Victim(set int, candidates []int) int {
	return candidates[p.rng.Intn(len(candidates))]
}

// treePLRUPolicy is the classic binary-tree pseudo-LRU used by many real
// L1s; provided for ablation against true LRU and random.
type treePLRUPolicy struct {
	ways int
	// bits holds one tree per set, ways-1 nodes each: node i's children
	// are 2i+1 and 2i+2.
	bits setArray[bool]
}

// NewTreePLRU returns a tree-PLRU policy. ways must be a power of two.
func NewTreePLRU(sets, ways int) ReplacementPolicy {
	return &treePLRUPolicy{ways: ways, bits: newSetArray[bool](sets, ways-1)}
}

func (p *treePLRUPolicy) Name() string { return "tree-plru" }

// SaveState captures the tree bits of every set used so far.
func (p *treePLRUPolicy) SaveState() any { return p.bits.save() }

// RestoreState rewinds the tree bits, writing back only sets mutated
// since the snapshot.
func (p *treePLRUPolicy) RestoreState(v any) { p.bits.restore(v.(setsCopy[bool])) }

// promote flips tree bits so the path to way points away from it.
func (p *treePLRUPolicy) promote(set, way int) {
	if p.ways == 1 {
		return
	}
	p.bits.touch(set)
	bits := p.bits.set(set)
	node, lo, hi := 0, 0, p.ways
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		goRight := way >= mid
		// Point the bit at the *other* half so it is chosen next.
		bits[node] = !goRight
		if goRight {
			node, lo = 2*node+2, mid
		} else {
			node, hi = 2*node+1, mid
		}
	}
}

func (p *treePLRUPolicy) OnAccess(set, way int)     { p.promote(set, way) }
func (p *treePLRUPolicy) OnFill(set, way int)       { p.promote(set, way) }
func (p *treePLRUPolicy) OnInvalidate(set, way int) {}

func (p *treePLRUPolicy) Victim(set int, candidates []int) int {
	if p.ways == 1 {
		return candidates[0]
	}
	bits := p.bits.set(set)
	node, lo, hi := 0, 0, p.ways
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if bits[node] {
			node, lo = 2*node+2, mid
		} else {
			node, hi = 2*node+1, mid
		}
	}
	// The PLRU way may be excluded by partitioning; fall back to the
	// first candidate if so.
	for _, c := range candidates {
		if c == lo {
			return lo
		}
	}
	return candidates[0]
}
