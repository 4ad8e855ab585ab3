// Package evict constructs eviction sets against the simulated cache
// hierarchy the way a real attacker does: by timing, without knowledge
// of the (possibly randomized) index mapping. unXpec primes the L1 sets
// that the probe array P[64·i] maps to, so that the transient loads of a
// secret-1 round are guaranteed to evict resident lines and force
// restoration work during rollback (paper §V-B, Figure 5).
//
// Two construction paths are provided:
//
//   - Timing-based search + group-testing reduction (Vila, Köpf &
//     Morales, S&P'19): works against identity and randomized mappings
//     alike, needs only load latencies.
//   - Arithmetic construction for identity-mapped caches: the classic
//     same-set stride, used as a fast path and as a cross-check.
package evict

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/memsys"
)

// Level selects which cache level an eviction set targets.
type Level int

const (
	// L1 targets the private data cache (identity-mapped, possibly
	// random replacement).
	L1 Level = iota
	// L2 targets the shared cache (possibly randomized indexing).
	L2
)

func (l Level) String() string {
	if l == L2 {
		return "L2"
	}
	return "L1"
}

// Finder runs timing experiments against one hierarchy.
type Finder struct {
	h *memsys.Hierarchy
	// Trials is how many times probabilistic eviction tests repeat;
	// random replacement makes single trials unreliable.
	Trials int
	// Passes is how many times one trial sweeps the candidate list.
	// Under random replacement an exact-associativity set displaces
	// the target with probability ≈ 1/ways per sweep (the set reaches
	// a steady state with one absent line whose refill rolls a random
	// victim); extra sweeps compound that probability. Harmless under
	// LRU. Default 1.
	Passes int
	// now is the finder's virtual clock: attacker probe loops are
	// sequential, so each access completes before the next begins.
	// Advancing it lets the MSHR drain between accesses; otherwise
	// structural stalls contaminate the timing tests.
	now uint64
	// stats
	testCount   int
	accessCount int
}

// NewFinder returns a Finder over h.
func NewFinder(h *memsys.Hierarchy) *Finder {
	return &Finder{h: h, Trials: 8, Passes: 1}
}

// Tests returns how many eviction tests have been run.
func (f *Finder) Tests() int { return f.testCount }

// Accesses returns how many timed loads the finder has issued.
func (f *Finder) Accesses() int { return f.accessCount }

// read issues an attacker load and returns its latency.
func (f *Finder) read(a mem.Addr) int {
	f.accessCount++
	res := f.h.Read(a, false, 0, f.now)
	f.now += uint64(res.Latency)
	f.h.TickMSHR(f.now)
	return res.Latency
}

// thresholds derives the hit/miss decision latencies from the hierarchy
// configuration — a real attacker calibrates these once by timing known
// hits and misses; reading them from the config is equivalent and noise
// free for construction.
func (f *Finder) thresholds() (l1Hit, l2Hit int) {
	cfg := f.h.Config()
	return cfg.L1D.HitLatency, cfg.L1D.HitLatency + cfg.L2.HitLatency
}

// evictedOnce runs one trial: install target, touch the candidates,
// re-time the target. It reports whether the target left the level.
func (f *Finder) evictedOnce(target mem.Addr, candidates []mem.Addr, level Level) bool {
	f.h.Flush(target)
	f.read(target) // install in L1+L2
	passes := f.Passes
	if passes < 1 {
		passes = 1
	}
	for p := 0; p < passes; p++ {
		for _, c := range candidates {
			f.read(c)
		}
	}
	lat := f.read(target)
	l1Hit, l2Hit := f.thresholds()
	switch level {
	case L1:
		return lat > l1Hit
	default:
		return lat > l2Hit
	}
}

// Evicts reports whether candidates (probabilistically) evict target
// from the given level: more than half of Trials must observe eviction.
func (f *Finder) Evicts(target mem.Addr, candidates []mem.Addr, level Level) bool {
	f.testCount++
	hits := 0
	for t := 0; t < f.Trials; t++ {
		if f.evictedOnce(target, candidates, level) {
			hits++
		}
	}
	return hits*2 > f.Trials
}

// FindEvictionSet searches pool for a minimal eviction set for target at
// the given level with the target associativity (number of ways). The
// pool must be large enough to contain at least `ways` congruent lines;
// 2–3× the cache size in lines is typical.
func (f *Finder) FindEvictionSet(target mem.Addr, pool []mem.Addr, ways int, level Level) ([]mem.Addr, error) {
	if !f.Evicts(target, pool, level) {
		return nil, fmt.Errorf("evict: pool of %d lines does not evict %s from %s", len(pool), target, level)
	}
	set := append([]mem.Addr(nil), pool...)
	// Group-testing reduction: while |set| > ways, split into ways+1
	// groups; pigeonhole guarantees some group holds no essential
	// congruent line and can be dropped. When a split leaves every
	// group essential (ties between congruent lines straddling group
	// boundaries), retry with finer partitionings before giving up.
	for len(set) > ways {
		removed := false
		for groups := ways + 1; groups <= 2*(ways+1) && !removed; groups++ {
			if groups > len(set) {
				break
			}
			for g := 0; g < groups; g++ {
				trial := withoutGroup(set, g, groups)
				if f.Evicts(target, trial, level) {
					set = trial
					removed = true
					break
				}
			}
		}
		if !removed {
			// Probabilistic replacement can stall the reduction below
			// the theoretical bound; accept the current (still
			// effective) superset rather than loop forever.
			break
		}
	}
	// Probabilistic replacement can fail one verification pass even for
	// a genuine eviction set; retry before declaring failure.
	for attempt := 0; attempt < 3; attempt++ {
		if f.Evicts(target, set, level) {
			return set, nil
		}
	}
	return nil, fmt.Errorf("evict: reduction lost the eviction property at %d lines", len(set))
}

// withoutGroup returns set minus its g-th of n contiguous groups.
func withoutGroup(set []mem.Addr, g, n int) []mem.Addr {
	lo := g * len(set) / n
	hi := (g + 1) * len(set) / n
	out := make([]mem.Addr, 0, len(set)-(hi-lo))
	out = append(out, set[:lo]...)
	out = append(out, set[hi:]...)
	return out
}

// Pool generates count candidate line addresses starting at base with a
// line stride; a cheap attacker-controlled buffer.
func Pool(base mem.Addr, count int) []mem.Addr {
	out := make([]mem.Addr, count)
	for i := range out {
		out[i] = base.Line() + mem.Addr(i*mem.LineSize)
	}
	return out
}

// CongruentL1 arithmetically constructs n lines congruent with target in
// an identity-mapped L1 with the given set count — the classic stride
// construction, valid because L1s are indexed by low address bits.
func CongruentL1(target mem.Addr, sets, n int, avoid mem.Addr) []mem.Addr {
	out := make([]mem.Addr, 0, n)
	set := target.SetIndex(sets)
	for tag := uint64(1); len(out) < n; tag++ {
		a := mem.FromSetTag(sets, set, target.Tag(sets)+tag)
		if a.Line() == target.Line() || a.Line() == avoid.Line() {
			continue
		}
		out = append(out, a)
	}
	return out
}

// Prime walks the lines of an eviction set, pulling them all into the
// cache — the "1. Prime" step of Figure 5. With an eviction set of size
// == associativity this fills the whole target set, so any subsequent
// fill into the set must displace a resident line.
func (f *Finder) Prime(lines []mem.Addr) {
	// Two passes cope with random replacement occasionally evicting a
	// just-primed sibling.
	for pass := 0; pass < 2; pass++ {
		for _, a := range lines {
			f.read(a)
		}
	}
}
