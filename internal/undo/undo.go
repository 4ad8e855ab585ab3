// Package undo implements the defense layer the paper attacks: the
// CleanupSpec Undo scheme (Saileshwar & Qureshi, MICRO'19) in its
// Cleanup_FOR_L1L2 mode, the unsafe baseline, the relaxed and strict
// constant-time rollback countermeasures of §VI-E, the fuzzy-time
// future-work defense of §VII, and a minimal Invisible-style scheme for
// Undo-vs-Invisible comparisons.
//
// A Scheme plugs into the CPU (package cpu): the core notifies it on
// every squash with the set of transient loads that executed, and the
// scheme mutates the cache hierarchy (invalidation + restoration) and
// returns how long the core must stall — the quantity unXpec measures.
package undo

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/memsys"
)

// TransientLoad describes one squashed, already-executed load: what it
// installed and what it displaced. The CPU assembles these from its load
// queue; victim identity comes from the MSHR records, exactly the two
// structures CleanupSpec reads (paper §II-B: "the addresses of
// transiently installed lines and that of the evicted lines are
// maintained in the load queue and MSHR, respectively").
type TransientLoad struct {
	LineAddr    mem.Addr
	InstalledL1 bool
	InstalledL2 bool
	// HasVictim marks that the fill displaced a non-speculative L1
	// line whose presence must be restored.
	HasVictim  bool
	VictimAddr mem.Addr
}

// SquashContext is everything a scheme sees when a mis-speculation is
// detected (T2 in the paper's Figure 1 timeline).
type SquashContext struct {
	// Epoch identifies the squashed speculation window.
	Epoch uint64
	// Now is the cycle at which the mis-speculation was detected.
	Now uint64
	// Transients lists squashed loads that already executed and hit
	// the hierarchy.
	Transients []TransientLoad
	// InflightCleaned is the number of still-in-flight mis-speculated
	// loads cleaned from the MSHR (T3).
	InflightCleaned int
}

// Result reports what a squash cost.
type Result struct {
	// StallCycles is how long the core stalls for cleanup, measured
	// from Now.
	StallCycles int
	// Invalidated counts lines invalidated; Restored counts L1 lines
	// restored; RestoredFromMem counts restores that had to go past L2.
	Invalidated     int
	Restored        int
	RestoredFromMem int
	// Residual counts transient lines left in cache because a strict
	// constant-time budget ran out — the incomplete-rollback leak the
	// paper warns about (§VI-E, first strategy).
	Residual int
}

// Stats accumulates scheme activity over a run.
type Stats struct {
	Squashes          uint64
	TotalStallCycles  uint64
	TotalInvalidated  uint64
	TotalRestored     uint64
	TotalResidual     uint64
	MaxStall          int
	CleanupsWithWork  uint64
	CleanupsEmptyWork uint64
}

func (s *Stats) absorb(r Result) {
	s.Squashes++
	s.TotalStallCycles += uint64(r.StallCycles)
	s.TotalInvalidated += uint64(r.Invalidated)
	s.TotalRestored += uint64(r.Restored)
	s.TotalResidual += uint64(r.Residual)
	if r.StallCycles > s.MaxStall {
		s.MaxStall = r.StallCycles
	}
	if r.Invalidated > 0 || r.Restored > 0 {
		s.CleanupsWithWork++
	} else {
		s.CleanupsEmptyWork++
	}
}

// Scheme is a safe-speculation policy.
type Scheme interface {
	// Name identifies the scheme in output.
	Name() string
	// VisibleSpeculation reports whether speculative loads may install
	// lines in the cache (true for Undo and the unsafe baseline,
	// false for Invisible-style schemes).
	VisibleSpeculation() bool
	// OnSquash rolls back h for the squashed window and returns the
	// stall it imposes.
	OnSquash(h *memsys.Hierarchy, ctx SquashContext) Result
	// CommitLoadPenalty is the extra retire-path cost per correctly
	// speculated load (Invisible schemes pay here; Undo pays nothing).
	CommitLoadPenalty() int
	// Stats returns accumulated counters.
	Stats() Stats
}

// LatencyModel parameterizes the rollback pipeline timing. Defaults are
// calibrated so the secret-dependent timing difference reproduces the
// paper: ≈22 cycles for one transient install without restoration and
// ≈32 cycles with one restoration, growing to ≈64 at eight restored
// lines (Figures 3 and 6). See DESIGN.md §4.
type LatencyModel struct {
	// MSHRCleanCycles is T3: cleaning in-flight mis-speculated loads.
	MSHRCleanCycles int
	// DrainCheckCycles is the T4 bookkeeping cost once older loads are
	// already complete.
	DrainCheckCycles int
	// InvFirstCycles is the first invalidation (L1+L2 round trip).
	InvFirstCycles int
	// InvRateNum/InvRateDen: each additional invalidation costs
	// Num/Den cycles (pipelined, L1 and L2 overlapped).
	InvRateNum, InvRateDen int
	// RestoreFirstCycles is the first restoration (L2 → L1 refill).
	RestoreFirstCycles int
	// RestoreIICycles is the initiation interval of the pipelined
	// restoration stream served by the L2 port.
	RestoreIICycles int
	// RestoreMemExtra is the additional cost when a restore misses L2
	// and must reach memory.
	RestoreMemExtra int
}

// DefaultLatencyModel returns the calibrated rollback timing.
func DefaultLatencyModel() LatencyModel {
	return LatencyModel{
		MSHRCleanCycles:    4,
		DrainCheckCycles:   2,
		InvFirstCycles:     16,
		InvRateNum:         2,
		InvRateDen:         5,
		RestoreFirstCycles: 10,
		RestoreIICycles:    4,
		RestoreMemExtra:    100,
	}
}

// stallFor computes the cleanup stall for nInv invalidations and nRest
// restorations (nMemRest of which went past L2).
func (m LatencyModel) stallFor(nInv, nRest, nMemRest int) int {
	if nInv == 0 && nRest == 0 {
		return 0
	}
	stall := m.MSHRCleanCycles + m.DrainCheckCycles
	if nInv > 0 {
		stall += m.InvFirstCycles + (nInv-1)*m.InvRateNum/m.InvRateDen
	}
	if nRest > 0 {
		stall += m.RestoreFirstCycles + (nRest-1)*m.RestoreIICycles
	}
	stall += nMemRest * m.RestoreMemExtra
	return stall
}

// CleanupMode selects which levels rollback invalidation covers — the
// original artifact's scheme_cleanupcache flag.
type CleanupMode int

const (
	// CleanupL1L2 invalidates transient installs in both L1 and L2 —
	// the mode the paper attacks (Cleanup_FOR_L1L2).
	CleanupL1L2 CleanupMode = iota
	// CleanupL1Only invalidates the L1 only, leaving the L2 to its
	// randomized mapping. Cheaper, but transient L2 footprints survive
	// squash — an ablation showing why the L1L2 mode exists.
	CleanupL1Only
)

func (m CleanupMode) String() string {
	if m == CleanupL1Only {
		return "l1only"
	}
	return "l1l2"
}

// CleanupSpec is the representative Undo defense, in Cleanup_FOR_L1L2
// mode by default: invalidation in L1 and L2, restoration into L1 only,
// serviced from L2.
type CleanupSpec struct {
	lat LatencyModel
	// Mode selects L1L2 (default) or L1-only invalidation.
	Mode CleanupMode
	// RestoreEnabled ablates restoration (DESIGN.md §5); invalidation
	// alone still forms a channel, per the paper.
	RestoreEnabled bool
	stats          Stats
	met            schemeMetrics
}

// NewCleanupSpec returns the scheme with the calibrated latency model.
func NewCleanupSpec() *CleanupSpec {
	return &CleanupSpec{lat: DefaultLatencyModel(), RestoreEnabled: true}
}

// NewCleanupSpecWithModel overrides the rollback timing.
func NewCleanupSpecWithModel(m LatencyModel) *CleanupSpec {
	return &CleanupSpec{lat: m, RestoreEnabled: true}
}

// Name implements Scheme.
func (c *CleanupSpec) Name() string {
	if c.Mode == CleanupL1Only {
		return "cleanupspec-l1only"
	}
	return "cleanupspec"
}

// VisibleSpeculation implements Scheme: Undo lets transient loads fill.
func (c *CleanupSpec) VisibleSpeculation() bool { return true }

// CommitLoadPenalty implements Scheme: the common case is free — the
// design premise of Undo defenses.
func (c *CleanupSpec) CommitLoadPenalty() int { return 0 }

// Stats implements Scheme.
func (c *CleanupSpec) Stats() Stats { return c.stats }

// OnSquash implements Scheme: the T3–T5 rollback.
func (c *CleanupSpec) OnSquash(h *memsys.Hierarchy, ctx SquashContext) Result {
	var res Result

	// T5a: invalidate every transiently installed line, in exactly the
	// levels the transient fill touched (and the mode covers).
	for _, tl := range ctx.Transients {
		coverL2 := tl.InstalledL2 && c.Mode == CleanupL1L2
		inL1, inL2 := h.InvalidateTransientIn(tl.LineAddr, tl.InstalledL1, coverL2)
		if c.Mode == CleanupL1Only && tl.InstalledL2 {
			// The surviving L2 line must not stay marked speculative
			// forever; it becomes ordinary cached data.
			h.CommitLine(tl.LineAddr)
		}
		if inL1 || inL2 {
			res.Invalidated++
		}
	}
	// T5b: restore L1 victims, serviced from L2 when possible.
	if c.RestoreEnabled {
		for _, tl := range ctx.Transients {
			if !tl.HasVictim {
				continue
			}
			fromL2 := h.RestoreL1(tl.VictimAddr)
			res.Restored++
			if !fromL2 {
				res.RestoredFromMem++
			}
		}
	}
	res.StallCycles = c.lat.stallFor(res.Invalidated, res.Restored, res.RestoredFromMem)
	c.stats.absorb(res)
	c.met.observe(len(ctx.Transients), res)
	return res
}

// Unsafe is the no-defense baseline: squashed loads leave their cache
// footprints behind (the classic Spectre channel) and the core never
// stalls for cleanup. Used as the Figure 12 normalization baseline and
// to demonstrate the attack the defenses are for.
type Unsafe struct {
	stats Stats
	met   schemeMetrics
}

// NewUnsafe returns the baseline scheme.
func NewUnsafe() *Unsafe { return &Unsafe{} }

// Name implements Scheme.
func (u *Unsafe) Name() string { return "unsafe-baseline" }

// VisibleSpeculation implements Scheme.
func (u *Unsafe) VisibleSpeculation() bool { return true }

// CommitLoadPenalty implements Scheme.
func (u *Unsafe) CommitLoadPenalty() int { return 0 }

// Stats implements Scheme.
func (u *Unsafe) Stats() Stats { return u.stats }

// OnSquash implements Scheme: keep the footprints, clear the marks so
// the lines behave as ordinary cached data afterwards.
func (u *Unsafe) OnSquash(h *memsys.Hierarchy, ctx SquashContext) Result {
	for _, tl := range ctx.Transients {
		h.CommitLine(tl.LineAddr)
	}
	res := Result{}
	u.stats.absorb(res)
	u.met.observe(len(ctx.Transients), res)
	return res
}

// ConstantTimeMode selects between the two §VI-E strategies.
type ConstantTimeMode int

const (
	// Relaxed stalls for max(actual, constant): rollback always
	// completes, but long rollbacks still show through — the variant
	// the paper implements and measures in Figure 12.
	Relaxed ConstantTimeMode = iota
	// Strict stalls for exactly the constant and abandons rollback
	// work that does not fit, leaving residual transient state — the
	// re-exploitable variant the paper warns about.
	Strict
)

func (m ConstantTimeMode) String() string {
	if m == Strict {
		return "strict"
	}
	return "relaxed"
}

// ConstantTime wraps CleanupSpec with a constant-time rollback budget.
type ConstantTime struct {
	inner *CleanupSpec
	// Cycles is the constant rollback time enforced on every squash.
	Cycles int
	Mode   ConstantTimeMode
	stats  Stats
	met    schemeMetrics
}

// NewConstantTime returns a constant-time rollback scheme over the
// calibrated CleanupSpec model.
func NewConstantTime(cycles int, mode ConstantTimeMode) *ConstantTime {
	return &ConstantTime{inner: NewCleanupSpec(), Cycles: cycles, Mode: mode}
}

// Name implements Scheme.
func (c *ConstantTime) Name() string {
	return fmt.Sprintf("cleanupspec-const%d-%s", c.Cycles, c.Mode)
}

// VisibleSpeculation implements Scheme.
func (c *ConstantTime) VisibleSpeculation() bool { return true }

// CommitLoadPenalty implements Scheme.
func (c *ConstantTime) CommitLoadPenalty() int { return 0 }

// Stats implements Scheme.
func (c *ConstantTime) Stats() Stats { return c.stats }

// OnSquash implements Scheme.
func (c *ConstantTime) OnSquash(h *memsys.Hierarchy, ctx SquashContext) Result {
	var res Result
	switch c.Mode {
	case Relaxed:
		res = c.inner.OnSquash(h, ctx)
		if res.StallCycles < c.Cycles {
			res.StallCycles = c.Cycles
		}
	case Strict:
		res = c.strictSquash(h, ctx)
	}
	c.stats.absorb(res)
	c.met.observe(len(ctx.Transients), res)
	return res
}

// strictSquash performs rollback work in order until the cycle budget is
// exhausted; anything left over stays in the cache as residual state.
func (c *ConstantTime) strictSquash(h *memsys.Hierarchy, ctx SquashContext) Result {
	var res Result
	lat := c.inner.lat
	budget := c.Cycles - lat.MSHRCleanCycles - lat.DrainCheckCycles

	type job struct {
		invalidate bool
		addr       mem.Addr
	}
	var jobs []job
	for _, tl := range ctx.Transients {
		jobs = append(jobs, job{invalidate: true, addr: tl.LineAddr})
	}
	for _, tl := range ctx.Transients {
		if tl.HasVictim {
			jobs = append(jobs, job{invalidate: false, addr: tl.VictimAddr})
		}
	}
	for _, j := range jobs {
		var cost int
		if j.invalidate {
			if res.Invalidated == 0 {
				cost = lat.InvFirstCycles
			} else {
				cost = (lat.InvRateNum + lat.InvRateDen - 1) / lat.InvRateDen
			}
		} else {
			if res.Restored == 0 {
				cost = lat.RestoreFirstCycles
			} else {
				cost = lat.RestoreIICycles
			}
		}
		if cost > budget {
			res.Residual++
			continue
		}
		budget -= cost
		if j.invalidate {
			h.InvalidateTransient(j.addr)
			res.Invalidated++
		} else {
			h.RestoreL1(j.addr)
			res.Restored++
		}
	}
	// Residual lines must not stay marked speculative forever.
	for _, tl := range ctx.Transients {
		h.CommitLine(tl.LineAddr)
	}
	res.StallCycles = c.Cycles
	return res
}

// FuzzyTime is the paper's proposed future-work defense (§VII): after a
// genuine rollback it pads the stall with a pseudo-random dummy delay
// drawn from [0, MaxDummyCycles − actualStall), disguising rollback time
// at a lower average cost than a worst-case constant. Short rollbacks
// receive larger random padding than long ones, which compresses the
// secret-dependent mean difference without ever stalling to the full
// worst case on average.
type FuzzyTime struct {
	inner *CleanupSpec
	// MaxDummyCycles bounds the padded stall.
	MaxDummyCycles int
	// rngState is a SplitMix64 stream; deterministic per seed.
	rngState uint64
	stats    Stats
	met      schemeMetrics
}

// NewFuzzyTime returns the dummy-delay scheme.
func NewFuzzyTime(maxDummy int, seed uint64) *FuzzyTime {
	return &FuzzyTime{inner: NewCleanupSpec(), MaxDummyCycles: maxDummy, rngState: seed}
}

// Name implements Scheme.
func (f *FuzzyTime) Name() string {
	return fmt.Sprintf("cleanupspec-fuzzy%d", f.MaxDummyCycles)
}

// VisibleSpeculation implements Scheme.
func (f *FuzzyTime) VisibleSpeculation() bool { return true }

// CommitLoadPenalty implements Scheme.
func (f *FuzzyTime) CommitLoadPenalty() int { return 0 }

// Stats implements Scheme.
func (f *FuzzyTime) Stats() Stats { return f.stats }

func (f *FuzzyTime) next() uint64 {
	f.rngState += 0x9e3779b97f4a7c15
	z := f.rngState
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// OnSquash implements Scheme.
func (f *FuzzyTime) OnSquash(h *memsys.Hierarchy, ctx SquashContext) Result {
	res := f.inner.OnSquash(h, ctx)
	if headroom := f.MaxDummyCycles - res.StallCycles; headroom > 0 {
		res.StallCycles += int(f.next() % uint64(headroom))
	}
	f.stats.absorb(res)
	f.met.observe(len(ctx.Transients), res)
	return res
}

// InvisibleLite is a minimal Invisible-style scheme for comparison:
// speculative loads do not install lines (the CPU consults
// VisibleSpeculation), so squash needs no rollback, but every correctly
// speculated load pays a commit-path penalty — the InvisiSpec-style
// "second read" cost that makes Invisible defenses slow in the common
// case.
type InvisibleLite struct {
	// Penalty is the per-load commit cost in cycles.
	Penalty int
	stats   Stats
	met     schemeMetrics
}

// NewInvisibleLite returns the scheme with an InvisiSpec-flavoured
// default penalty.
func NewInvisibleLite() *InvisibleLite { return &InvisibleLite{Penalty: 2} }

// Name implements Scheme.
func (i *InvisibleLite) Name() string { return "invisible-lite" }

// VisibleSpeculation implements Scheme: the defining property.
func (i *InvisibleLite) VisibleSpeculation() bool { return false }

// CommitLoadPenalty implements Scheme.
func (i *InvisibleLite) CommitLoadPenalty() int { return i.Penalty }

// Stats implements Scheme.
func (i *InvisibleLite) Stats() Stats { return i.stats }

// OnSquash implements Scheme: nothing was installed, nothing to do.
func (i *InvisibleLite) OnSquash(h *memsys.Hierarchy, ctx SquashContext) Result {
	res := Result{}
	i.stats.absorb(res)
	i.met.observe(len(ctx.Transients), res)
	return res
}
