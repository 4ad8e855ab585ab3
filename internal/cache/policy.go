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

// lruPolicy is a true-LRU stack per set.
type lruPolicy struct {
	// order[set] lists ways from MRU (front) to LRU (back).
	order [][]int
	// version/stamp mirror Cache's dirty-set tracking: RestoreState
	// copies back only stacks mutated since the snapshot.
	version uint64
	stamp   []uint64
}

// NewLRU returns a least-recently-used policy for sets×ways.
func NewLRU(sets, ways int) ReplacementPolicy {
	p := &lruPolicy{order: make([][]int, sets), stamp: make([]uint64, sets)}
	for s := range p.order {
		p.order[s] = make([]int, 0, ways)
	}
	return p
}

func (p *lruPolicy) Name() string { return "lru" }

// mark records a mutation of set's recency stack.
func (p *lruPolicy) mark(set int) {
	p.version++
	p.stamp[set] = p.version
}

// lruState is a frozen copy of every recency stack.
type lruState struct {
	order [][]int
	asOf  uint64
}

// SaveState captures every set's recency stack.
func (p *lruPolicy) SaveState() any {
	s := lruState{order: make([][]int, len(p.order)), asOf: p.version}
	for i, q := range p.order {
		s.order[i] = append([]int(nil), q...)
	}
	return s
}

// RestoreState rewinds the recency stacks to a saved snapshot; the
// per-set backing arrays are reused (capacity is fixed at ways) and
// stacks untouched since the snapshot are skipped.
func (p *lruPolicy) RestoreState(v any) {
	s := v.(lruState)
	for i := range p.order {
		if p.stamp[i] <= s.asOf {
			continue
		}
		p.order[i] = append(p.order[i][:0], s.order[i]...)
		p.mark(i)
	}
}

func (p *lruPolicy) touch(set, way int) {
	p.mark(set)
	q := p.order[set]
	for i, w := range q {
		if w == way {
			copy(q[1:i+1], q[:i])
			q[0] = way
			return
		}
	}
	p.order[set] = append(q, 0)
	q = p.order[set]
	copy(q[1:], q[:len(q)-1])
	q[0] = way
}

func (p *lruPolicy) OnAccess(set, way int) { p.touch(set, way) }
func (p *lruPolicy) OnFill(set, way int)   { p.touch(set, way) }

func (p *lruPolicy) OnInvalidate(set, way int) {
	q := p.order[set]
	for i, w := range q {
		if w == way {
			p.order[set] = append(q[:i], q[i+1:]...)
			p.mark(set)
			return
		}
	}
}

func (p *lruPolicy) Victim(set int, candidates []int) int {
	q := p.order[set]
	// Scan from LRU end; pick the least recent candidate.
	inCand := func(w int) bool {
		for _, c := range candidates {
			if c == w {
				return true
			}
		}
		return false
	}
	for i := len(q) - 1; i >= 0; i-- {
		if inCand(q[i]) {
			return q[i]
		}
	}
	// Candidates never touched: evict the first.
	return candidates[0]
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
	// bits[set] holds the tree: node i's children are 2i+1 and 2i+2.
	bits [][]bool
}

// NewTreePLRU returns a tree-PLRU policy. ways must be a power of two.
func NewTreePLRU(sets, ways int) ReplacementPolicy {
	p := &treePLRUPolicy{ways: ways, bits: make([][]bool, sets)}
	for s := range p.bits {
		p.bits[s] = make([]bool, ways-1)
	}
	return p
}

func (p *treePLRUPolicy) Name() string { return "tree-plru" }

// SaveState captures every set's tree bits.
func (p *treePLRUPolicy) SaveState() any {
	s := make([][]bool, len(p.bits))
	for i, b := range p.bits {
		s[i] = append([]bool(nil), b...)
	}
	return s
}

// RestoreState copies saved tree bits back in place.
func (p *treePLRUPolicy) RestoreState(v any) {
	s := v.([][]bool)
	for i := range p.bits {
		copy(p.bits[i], s[i])
	}
}

// promote flips tree bits so the path to way points away from it.
func (p *treePLRUPolicy) promote(set, way int) {
	if p.ways == 1 {
		return
	}
	bits := p.bits[set]
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
	bits := p.bits[set]
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
