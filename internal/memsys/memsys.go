// Package memsys wires the cache levels of Table I into a hierarchy:
// private L1I and L1D, a shared L2, and a fixed-latency DRAM. It models
// exactly the behaviours the unXpec timing channel reads: per-level
// hit/miss latencies, line installs, evictions (with victim identity for
// restoration), speculative marking, and CleanupSpec's two in-window
// protections — delayed coherence downgrade and dummy-miss service of
// cross-agent hits on speculatively installed lines.
//
// Caches here are timing-only: architectural data always lives in the
// backing mem.Memory, so rollback never needs to move data, only
// metadata — mirroring how CleanupSpec restores *presence*, not values.
package memsys

import (
	"fmt"
	"math"

	"repro/internal/cache"
	"repro/internal/mem"
)

// Config assembles the hierarchy. Zero-valued cache configs are invalid;
// use DefaultConfig for the paper's Table I machine.
type Config struct {
	L1I cache.Config
	L1D cache.Config
	L2  cache.Config
	// MemLatency is the DRAM round trip in cycles *after* an L2 miss
	// (Table I: 50 ns at 2 GHz = 100 cycles).
	MemLatency int
	// MSHREntries bounds in-flight L1D misses.
	MSHREntries int
	// DelayCoherenceDowngrade enables CleanupSpec's in-window rule: an
	// M/E → S downgrade requested while the line is speculative is
	// deferred until the speculation resolves.
	DelayCoherenceDowngrade bool
	// DummyMissOnSpecHit enables CleanupSpec's in-window rule: a
	// cross-agent access hitting a speculatively installed line is
	// served as if it missed.
	DummyMissOnSpecHit bool
}

// DefaultConfig returns the paper's Table I machine with CleanupSpec's
// cache-side protections on: L1D random replacement, L2 randomized
// (CEASER-like) indexing, delayed downgrades, dummy misses.
func DefaultConfig(seed int64) Config {
	return Config{
		L1I: cache.Config{Name: "l1i", Sets: 128, Ways: 4, HitLatency: 1},
		L1D: cache.Config{
			Name: "l1d", Sets: 64, Ways: 8, HitLatency: 2,
			Policy: cache.NewRandom(seed),
		},
		L2:                      cache.Config{Name: "l2", Sets: 2048, Ways: 16, HitLatency: 16},
		MemLatency:              100,
		MSHREntries:             16,
		DelayCoherenceDowngrade: true,
		DummyMissOnSpecHit:      true,
	}
}

// UnsafeConfig returns the same machine without any protection: LRU L1,
// identity-mapped L2, no delayed downgrade or dummy misses. This is the
// UnsafeBaseline substrate for Figure 12.
func UnsafeConfig() Config {
	cfg := DefaultConfig(0)
	cfg.L1D.Policy = cache.NewLRU(cfg.L1D.Sets, cfg.L1D.Ways)
	cfg.L2.Mapper = cache.IdentityMapper()
	cfg.DelayCoherenceDowngrade = false
	cfg.DummyMissOnSpecHit = false
	return cfg
}

// ConfigError is the error Validate returns for a bad hierarchy-level
// field; a bad cache level fails with that level's *cache.ConfigError.
type ConfigError struct {
	Field  string // the rejected Config field, e.g. "MemLatency"
	Detail string
}

func (e *ConfigError) Error() string { return "memsys: " + e.Detail }

// Validate checks all nested configurations.
func (c Config) Validate() error {
	for _, cc := range []cache.Config{c.L1I, c.L1D, c.L2} {
		if err := cc.Validate(); err != nil {
			return err
		}
	}
	if c.MemLatency < 0 {
		return &ConfigError{Field: "MemLatency", Detail: "negative memory latency"}
	}
	// The slowest access pays an L1 latency, the L2's twice (a miss
	// behind an MSHR stall) and memory's: capping each at a quarter of
	// the int range keeps that sum from wrapping negative.
	for _, l := range []struct {
		field string
		v     int
	}{{"L1I.HitLatency", c.L1I.HitLatency}, {"L1D.HitLatency", c.L1D.HitLatency},
		{"L2.HitLatency", c.L2.HitLatency}, {"MemLatency", c.MemLatency}} {
		if l.v > math.MaxInt/4 {
			return &ConfigError{Field: l.field, Detail: fmt.Sprintf("%s %d cycles would overflow an access latency", l.field, l.v)}
		}
	}
	return nil
}

// AccessResult reports everything a single data access did, which is the
// raw material for both the CPU's timing and the undo scheme's rollback
// bookkeeping.
type AccessResult struct {
	Addr    mem.Addr
	Latency int
	Value   uint64

	L1Hit     bool
	L2Hit     bool
	MemAccess bool

	InstalledL1 bool
	InstalledL2 bool

	// L1 victim identity for restoration (CleanupSpec records this in
	// the MSHR entry of the transient fill).
	HasL1Victim   bool
	L1VictimAddr  mem.Addr
	L1VictimSpec  bool
	L1VictimDirty bool

	HasL2Victim  bool
	L2VictimAddr mem.Addr

	// Dummy is true when the access was served as a dummy miss.
	Dummy bool
	// MSHRStall is true when the miss had to wait for a free MSHR.
	MSHRStall bool
}

// Stats aggregates hierarchy-level counters beyond the per-cache ones.
type Stats struct {
	Reads              uint64
	Writes             uint64
	InstFetches        uint64
	Flushes            uint64
	MemAccesses        uint64
	Writebacks         uint64
	BackInvalidations  uint64
	DelayedDowngrades  uint64
	AppliedDowngrades  uint64
	DummyMisses        uint64
	Restorations       uint64
	RestorationsFromL2 uint64
}

// Hierarchy is the three-level memory system of one simulated core plus
// the shared L2 visible to other agents.
type Hierarchy struct {
	cfg  Config
	l1i  *cache.Cache
	l1d  *cache.Cache
	l2   *cache.Cache
	mshr *cache.MSHRFile
	mem  *mem.Memory
	// agent identifies this core at the shared L2: speculative lines
	// installed by a different agent are served per the CleanupSpec
	// in-window rules (dummy miss / delayed downgrade).
	agent int

	// peers are other cores' L1D caches sharing the same L2. They are
	// needed for coherence-global operations: clflush and inclusive
	// back-invalidation must remove copies from every private L1.
	peers []*cache.Cache

	stats Stats
	met   hierMetrics

	// shared records that some cache level belongs to other hierarchies
	// too (built by NewShared). SaveState cannot capture such a
	// hierarchy consistently on its own, so machine snapshots refuse it.
	shared bool
}

// AttachPeerL1 registers another core's private L1D for coherence-
// global flush/back-invalidation. Package multicore wires all pairs.
func (h *Hierarchy) AttachPeerL1(c *cache.Cache) { h.peers = append(h.peers, c) }

// invalidatePeers removes addr from every sibling L1.
func (h *Hierarchy) invalidatePeers(addr mem.Addr) {
	for _, p := range h.peers {
		if present, dirty := p.Invalidate(addr); present {
			h.stats.BackInvalidations++
			h.met.backInvalidations.Inc()
			if dirty {
				h.stats.Writebacks++
				h.met.writebacks.Inc()
			}
		}
	}
}

// New builds a hierarchy over the given backing memory.
func New(cfg Config, backing *mem.Memory) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if backing == nil {
		backing = mem.NewMemory()
	}
	return &Hierarchy{
		cfg:  cfg,
		l1i:  cache.New(cfg.L1I),
		l1d:  cache.New(cfg.L1D),
		l2:   cache.New(cfg.L2),
		mshr: cache.NewMSHRFile(cfg.MSHREntries),
		mem:  backing,
	}, nil
}

// NewShared builds one agent's view of a multi-agent machine over an
// existing shared L2 and backing memory, with its own L1I and MSHRs.
// A nil sharedL1D gives the agent a private L1D (one core of a
// multi-core machine); a non-nil one is shared with a sibling hardware
// thread (SMT), where NoMo way partitioning in the L1 config keeps the
// threads' fills apart. agent must be unique per hierarchy; it selects
// the thread's partition and identifies its speculative installs to
// the in-window rules.
func NewShared(cfg Config, backing *mem.Memory, sharedL1D, sharedL2 *cache.Cache, agent int) (*Hierarchy, error) {
	if sharedL2 == nil || backing == nil {
		return nil, fmt.Errorf("memsys: shared hierarchy needs an L2 and backing memory")
	}
	if err := cfg.L1I.Validate(); err != nil {
		return nil, err
	}
	l1d := sharedL1D
	if l1d == nil {
		if err := cfg.L1D.Validate(); err != nil {
			return nil, err
		}
		l1d = cache.New(cfg.L1D)
	}
	return &Hierarchy{
		cfg:    cfg,
		l1i:    cache.New(cfg.L1I),
		l1d:    l1d,
		l2:     sharedL2,
		mshr:   cache.NewMSHRFile(cfg.MSHREntries),
		mem:    backing,
		agent:  agent,
		shared: true,
	}, nil
}

// Agent returns this hierarchy's core identity.
func (h *Hierarchy) Agent() int { return h.agent }

// Shared reports whether the hierarchy shares cache levels with other
// agents (it was built by NewShared).
func (h *Hierarchy) Shared() bool { return h.shared }

// MustNew is New for construction sites where the config is static.
func MustNew(cfg Config, backing *mem.Memory) *Hierarchy {
	h, err := New(cfg, backing)
	if err != nil {
		panic(err)
	}
	return h
}

// Memory exposes the backing store.
func (h *Hierarchy) Memory() *mem.Memory { return h.mem }

// L1D exposes the data cache (undo schemes and tests need it).
func (h *Hierarchy) L1D() *cache.Cache { return h.l1d }

// L1I exposes the instruction cache.
func (h *Hierarchy) L1I() *cache.Cache { return h.l1i }

// L2 exposes the shared cache.
func (h *Hierarchy) L2() *cache.Cache { return h.l2 }

// MSHR exposes the miss-status file (cleanup reads victim records).
func (h *Hierarchy) MSHR() *cache.MSHRFile { return h.mshr }

// Stats returns hierarchy counters.
func (h *Hierarchy) Stats() Stats { return h.stats }

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// Read performs a data load by this hierarchy's agent. spec marks the
// load as issued under an unresolved branch in window epoch. now is the
// current cycle, used only for MSHR fill timing. Read is the only way
// one agent touches another's lines: a hit on a line another agent
// installed speculatively is served by CleanupSpec's in-window rules.
func (h *Hierarchy) Read(addr mem.Addr, spec bool, epoch uint64, now uint64) AccessResult {
	h.stats.Reads++
	res := AccessResult{Addr: addr, Value: h.mem.ReadWord(addr)}

	if h.l1d.Lookup(addr) {
		res.L1Hit = true
		res.Latency = h.cfg.L1D.HitLatency
		return res
	}

	// L1 miss: check MSHR for structural stall, then go to L2.
	res.MSHRStall = h.mshr.Full()
	stallPenalty := 0
	if res.MSHRStall {
		h.met.mshrStalls.Inc()
		// Model the wait for a free entry as the residual latency of
		// the oldest in-flight miss; a coarse but bounded penalty.
		stallPenalty = h.cfg.L2.HitLatency
		h.mshr.Complete(now + uint64(stallPenalty))
	}

	lat := h.cfg.L1D.HitLatency
	switch line, inL2 := h.l2.ProbeState(addr); {
	case inL2 && line.Speculative && line.Owner != h.agent && h.cfg.DummyMissOnSpecHit:
		// Another core's transient install: CleanupSpec serves the
		// request as a dummy miss — full memory latency and no state
		// refresh on the shared line — so its presence is unobservable
		// (§II-B). The requester still receives the data and caches a
		// private copy.
		res.Dummy = true
		h.l2.CountDummyMiss()
		h.stats.DummyMisses++
		h.met.dummyMisses.Inc()
		lat += h.cfg.L2.HitLatency + h.cfg.MemLatency
	case inL2:
		h.l2.Lookup(addr) // refresh replacement state
		res.L2Hit = true
		lat += h.cfg.L2.HitLatency
		// A cross-agent hit on an M/E line wants a downgrade to S —
		// deferred while the line is speculative: the mark stays on the
		// shared line until the owner's CommitLine applies it or its
		// rollback invalidates the line.
		if line.Owner != h.agent && (line.State == cache.Modified || line.State == cache.Exclusive) {
			if line.Speculative && h.cfg.DelayCoherenceDowngrade {
				h.l2.DeferDowngrade(addr)
				h.stats.DelayedDowngrades++
				h.met.delayedDowngrades.Inc()
			} else {
				h.l2.SetState(addr, cache.Shared)
				h.stats.AppliedDowngrades++
				h.met.appliedDowngrades.Inc()
			}
		}
	default:
		h.l2.Lookup(addr) // counts the L2 miss
		res.MemAccess = true
		h.stats.MemAccesses++
		h.met.memAccesses.Inc()
		lat += h.cfg.L2.HitLatency + h.cfg.MemLatency
		ev2, evicted2 := h.l2.Fill(addr, h.agent, spec, epoch)
		res.InstalledL2 = true
		if evicted2 {
			res.HasL2Victim = true
			res.L2VictimAddr = ev2.LineAddr
			// Inclusive hierarchy: an L2 eviction back-invalidates
			// every private L1.
			if present, dirty := h.l1d.Invalidate(ev2.LineAddr); present {
				h.stats.BackInvalidations++
				h.met.backInvalidations.Inc()
				if dirty {
					h.stats.Writebacks++
					h.met.writebacks.Inc()
				}
			}
			h.invalidatePeers(ev2.LineAddr)
			if ev2.Dirty {
				h.stats.Writebacks++
				h.met.writebacks.Inc()
			}
		}
	}

	ev1, evicted1 := h.l1d.Fill(addr, h.agent, spec, epoch)
	res.InstalledL1 = true
	if evicted1 {
		res.HasL1Victim = true
		res.L1VictimAddr = ev1.LineAddr
		res.L1VictimSpec = ev1.WasSpeculative
		res.L1VictimDirty = ev1.Dirty
		if ev1.Dirty {
			// Write back into L2 (timing only; data is in memory).
			h.l2.MarkDirty(ev1.LineAddr)
			h.stats.Writebacks++
			h.met.writebacks.Inc()
		}
	}

	res.Latency = lat + stallPenalty
	h.mshr.Allocate(cache.MSHREntry{
		LineAddr:             addr.Line(),
		Speculative:          spec,
		Epoch:                epoch,
		IssueCycle:           now,
		FillCycle:            now + uint64(res.Latency),
		EvictedL1:            res.L1VictimAddr,
		HasVictim:            res.HasL1Victim && !res.L1VictimSpec,
		VictimWasSpeculative: res.L1VictimSpec,
	})
	h.met.mshrOccupancy.Observe(float64(h.mshr.Occupancy()))
	return res
}

// ReadShadow computes the latency a load would observe without changing
// any cache *contents*. Invisible-style schemes use it for speculative
// loads: the data returns to the core but nothing is installed until
// the speculation commits. Crucially, a shadow miss still occupies an
// MSHR — the data must be fetched from somewhere — which is exactly the
// contention the speculative interference attack (Behnia et al., the
// paper's [2]) exploits to break Invisible defenses.
func (h *Hierarchy) ReadShadow(addr mem.Addr, epoch uint64, now uint64) AccessResult {
	res := AccessResult{Addr: addr, Value: h.mem.ReadWord(addr)}
	if h.l1d.Probe(addr) {
		res.L1Hit = true
		res.Latency = h.cfg.L1D.HitLatency
		return res
	}
	res.MSHRStall = h.mshr.Full()
	stallPenalty := 0
	if res.MSHRStall {
		h.met.mshrStalls.Inc()
		stallPenalty = h.cfg.L2.HitLatency
		h.mshr.Complete(now + uint64(stallPenalty))
	}
	if h.l2.Probe(addr) {
		res.L2Hit = true
		res.Latency = h.cfg.L1D.HitLatency + h.cfg.L2.HitLatency + stallPenalty
	} else {
		res.MemAccess = true
		res.Latency = h.cfg.L1D.HitLatency + h.cfg.L2.HitLatency + h.cfg.MemLatency + stallPenalty
	}
	h.mshr.Allocate(cache.MSHREntry{
		LineAddr:    addr.Line(),
		Speculative: true,
		Epoch:       epoch,
		IssueCycle:  now,
		FillCycle:   now + uint64(res.Latency),
	})
	h.met.mshrOccupancy.Observe(float64(h.mshr.Occupancy()))
	return res
}

// Write performs a data store by the owning core. Stores in the
// simulated programs are non-speculative by the time they reach memory
// (the CPU only lets stores update the hierarchy at retirement), so they
// never carry speculative marks.
func (h *Hierarchy) Write(addr mem.Addr, value uint64, now uint64) AccessResult {
	h.stats.Writes++
	h.mem.WriteWord(addr, value)
	res := AccessResult{Addr: addr, Value: value}
	if h.l1d.Lookup(addr) {
		res.L1Hit = true
		res.Latency = h.cfg.L1D.HitLatency
		h.l1d.MarkDirty(addr)
		return res
	}
	// Write-allocate: fetch the line like a read, then dirty it.
	res = h.Read(addr, false, 0, now)
	res.Value = value
	h.stats.Reads-- // the embedded Read is part of this write
	h.l1d.MarkDirty(addr)
	return res
}

// FetchInst models an instruction fetch through L1I (shared L2).
func (h *Hierarchy) FetchInst(addr mem.Addr, now uint64) int {
	h.stats.InstFetches++
	if h.l1i.Lookup(addr) {
		return h.cfg.L1I.HitLatency
	}
	lat := h.cfg.L1I.HitLatency
	if h.l2.Lookup(addr) {
		lat += h.cfg.L2.HitLatency
	} else {
		lat += h.cfg.L2.HitLatency + h.cfg.MemLatency
		h.stats.MemAccesses++
		h.met.memAccesses.Inc()
		h.l2.Fill(addr, h.agent, false, 0)
	}
	h.l1i.Fill(addr, h.agent, false, 0)
	return lat
}

// Flush implements clflush: evict the line from every level, writing
// back dirty data. Returns the latency of the flush.
func (h *Hierarchy) Flush(addr mem.Addr) int {
	h.stats.Flushes++
	lat := h.cfg.L1D.HitLatency
	if present, dirty := h.l1d.Flush(addr); present && dirty {
		h.stats.Writebacks++
		h.met.writebacks.Inc()
	}
	if present, dirty := h.l2.Flush(addr); present {
		lat += h.cfg.L2.HitLatency
		if dirty {
			h.stats.Writebacks++
			h.met.writebacks.Inc()
		}
	}
	// clflush is coherence-global: sibling cores' L1 copies go too.
	h.invalidatePeers(addr)
	return lat
}

// Probe reports line presence per level without disturbing state.
func (h *Hierarchy) Probe(addr mem.Addr) (inL1, inL2 bool) {
	return h.l1d.Probe(addr), h.l2.Probe(addr)
}

// CommitLine clears the speculative mark on one line in both levels and
// applies a coherence downgrade another agent's Read deferred on it.
// The CPU calls this per load when the branch shadowing it resolves on
// the correct path.
func (h *Hierarchy) CommitLine(addr mem.Addr) {
	h.l1d.Commit(addr)
	if h.l2.Commit(addr) {
		h.stats.AppliedDowngrades++
		h.met.appliedDowngrades.Inc()
	}
}

// InvalidateTransient removes a transiently installed line from both L1
// and L2 (the Cleanup_FOR_L1L2 invalidation path). It reports which
// levels held the line.
func (h *Hierarchy) InvalidateTransient(addr mem.Addr) (inL1, inL2 bool) {
	return h.InvalidateTransientIn(addr, true, true)
}

// InvalidateTransientIn removes a transient line from the selected
// levels only. CleanupSpec tracks where each transient load installed;
// a load that hit in L2 and filled only the L1 must not invalidate
// another agent's legitimate L2 copy.
func (h *Hierarchy) InvalidateTransientIn(addr mem.Addr, l1, l2 bool) (inL1, inL2 bool) {
	if l1 {
		inL1, _ = h.l1d.Invalidate(addr)
	}
	if l2 {
		inL2, _ = h.l2.Invalidate(addr)
		// Inclusive invariant: a line leaving the shared L2 must also
		// leave every sibling L1 (e.g. a prober's dummy-miss copy). A
		// downgrade deferred on the line leaves with it.
		h.invalidatePeers(addr)
	}
	return inL1, inL2
}

// RestoreL1 brings an evicted victim line back into the L1 during
// rollback. CleanupSpec restores only into L1 and services restores from
// L2; if the line has meanwhile left L2 the restore reaches to memory.
// It returns whether L2 had the line (the common, pipelined case).
func (h *Hierarchy) RestoreL1(addr mem.Addr) (fromL2 bool) {
	h.stats.Restorations++
	h.met.restorations.Inc()
	fromL2 = h.l2.Probe(addr)
	if fromL2 {
		h.stats.RestorationsFromL2++
		h.met.restoredFromL2.Inc()
	} else {
		// Refetch into L2 first (inclusive hierarchy).
		h.l2.Fill(addr, h.agent, false, 0)
		h.stats.MemAccesses++
		h.met.memAccesses.Inc()
	}
	h.l1d.Fill(addr, h.agent, false, 0)
	return fromL2
}

// WarmRead loads addr non-speculatively with no timing consequence
// recorded; used by experiment setup code to pre-warm caches.
func (h *Hierarchy) WarmRead(addr mem.Addr) {
	h.Read(addr, false, 0, 0)
}

// TickMSHR retires in-flight misses whose fill time has passed.
func (h *Hierarchy) TickMSHR(now uint64) { h.mshr.Complete(now) }

// NextWakeup returns the earliest cycle strictly after now at which the
// hierarchy changes state on its own — the next MSHR fill completion —
// and whether any such event is pending. Between now and that cycle the
// hierarchy is quiescent: every other transition (fills, flushes,
// downgrades) happens synchronously inside a core-initiated access.
// This is the hierarchy half of the idle-cycle fast-forward contract.
func (h *Hierarchy) NextWakeup(now uint64) (uint64, bool) {
	return h.mshr.NextFill(now)
}
