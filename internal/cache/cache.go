package cache

import (
	"fmt"
	"math"

	"repro/internal/mem"
)

// CoherenceState is a coherence-lite M/E/S/I state. CleanupSpec's
// in-window protections manipulate these states: unsafe downgrades
// (M/E → S) are delayed while a speculation is unresolved.
type CoherenceState uint8

const (
	Invalid CoherenceState = iota
	Shared
	Exclusive
	Modified
)

func (s CoherenceState) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return "?"
}

// Line is one cache line's metadata. Data values live in mem.Memory;
// caches only track presence and state, which is all timing needs.
type Line struct {
	Tag   uint64
	State CoherenceState
	Dirty bool
	// Speculative marks lines installed by not-yet-resolved loads.
	// CleanupSpec serves cross-agent hits on such lines with a dummy
	// miss and invalidates them during rollback.
	Speculative bool
	// DowngradeDeferred marks an M/E → S coherence downgrade another
	// agent requested while the line was speculative (CleanupSpec's
	// in-window rule). Commit applies it; the mark leaves with the line
	// on invalidation, flush or replacement. It sits with the other
	// flags so Line stays 32 bytes.
	DowngradeDeferred bool
	// Epoch tags which speculation window installed the line.
	Epoch uint64
	// Owner is the agent ID that installed the line (for dummy-miss
	// decisions in shared caches).
	Owner int
}

// Valid reports whether the line holds data.
func (l *Line) Valid() bool { return l.State != Invalid }

// IndexMapper turns a line address into a set index. Identity mapping is
// the norm; the randomized CEASER-like mapper lives in package randmap.
type IndexMapper interface {
	// MapIndex returns the set index for a line address.
	MapIndex(line mem.Addr, sets int) uint64
	// Name identifies the mapper.
	Name() string
}

// identityMapper uses the conventional low line-address bits.
type identityMapper struct{}

func (identityMapper) MapIndex(line mem.Addr, sets int) uint64 { return line.SetIndex(sets) }
func (identityMapper) Name() string                            { return "identity" }

// IdentityMapper returns the conventional set-index mapping.
func IdentityMapper() IndexMapper { return identityMapper{} }

// Config describes one cache level.
type Config struct {
	Name       string
	Sets       int
	Ways       int
	HitLatency int // cycles for a hit at this level
	// Policy decides victims. Nil defaults to LRU.
	Policy ReplacementPolicy
	// Mapper transforms addresses to set indices. Nil = identity.
	Mapper IndexMapper
	// PartitionWays, if > 0, reserves that many ways per set for each
	// agent under NoMo-style way partitioning: agent i may only fill
	// ways [i*PartitionWays, (i+1)*PartitionWays). Zero disables
	// partitioning (all agents share all ways).
	PartitionWays int
}

// ConfigError is the error Config.Validate returns. It names the cache
// and the rejected field.
type ConfigError struct {
	Name   string // the cache's Config.Name
	Field  string // the rejected Config field, e.g. "Sets"
	Detail string
}

func (e *ConfigError) Error() string { return fmt.Sprintf("cache %s: %s", e.Name, e.Detail) }

// Validate checks structural invariants of the configuration. Every
// failure is a *ConfigError.
func (c Config) Validate() error {
	bad := func(field, format string, args ...any) error {
		return &ConfigError{Name: c.Name, Field: field, Detail: fmt.Sprintf(format, args...)}
	}
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return bad("Sets", "sets must be a positive power of two, got %d", c.Sets)
	}
	if c.Ways <= 0 {
		return bad("Ways", "ways must be positive, got %d", c.Ways)
	}
	// New allocates Sets×Ways lines in one array, and SizeBytes
	// multiplies by the line size: both products must fit in an int.
	if c.Ways > math.MaxInt/mem.LineSize || c.Sets > math.MaxInt/(c.Ways*mem.LineSize) {
		return bad("Sets", "%d sets × %d ways × %d-byte lines overflows int", c.Sets, c.Ways, mem.LineSize)
	}
	if c.PartitionWays < 0 || c.PartitionWays > c.Ways {
		return bad("PartitionWays", "partition ways %d out of range [0,%d]", c.PartitionWays, c.Ways)
	}
	if c.HitLatency < 0 {
		return bad("HitLatency", "negative hit latency")
	}
	return nil
}

// SizeBytes returns the capacity of the configured cache in bytes.
func (c Config) SizeBytes() int { return c.Sets * c.Ways * mem.LineSize }

// Stats aggregates per-cache counters.
type Stats struct {
	Hits          uint64
	Misses        uint64
	Fills         uint64
	Evictions     uint64
	DirtyEvicts   uint64
	Invalidations uint64
	Flushes       uint64
	DummyMisses   uint64
}

// Eviction describes a line displaced by a fill, carrying what the
// restoration half of CleanupSpec's rollback needs.
type Eviction struct {
	LineAddr mem.Addr
	Dirty    bool
	// WasSpeculative is true when the displaced line was itself a
	// transient install (no restoration needed for it).
	WasSpeculative bool
}

// Cache is one set-associative cache level.
type Cache struct {
	cfg    Config
	policy ReplacementPolicy
	mapper IndexMapper
	// lines holds every set's ways in one array, stamped per set. Every
	// method that mutates line data MUST call lines.touch(set): Restore
	// copies back only sets stamped since the snapshot
	// (docs/SNAPSHOTS.md), so a missed call breaks snapshot
	// bit-identity, which the differential equivalence suite exists to
	// catch.
	lines setArray[Line]
	stats Stats
	met   cacheMetrics
	// allWays lists every way once, the unpartitioned fill-candidate
	// set; candBuf/validBuf are reused per Fill so the hot path does not
	// allocate. Callers of fillCandidates treat the result as read-only
	// and never retain it across fills.
	allWays  []int
	candBuf  []int
	validBuf []int
}

// New builds a cache from cfg, panicking on invalid structural
// parameters (a construction-time programming error, not a runtime
// condition). Its allocation count does not depend on the geometry.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.Policy == nil {
		cfg.Policy = NewLRU(cfg.Sets, cfg.Ways)
	}
	if cfg.Mapper == nil {
		cfg.Mapper = IdentityMapper()
	}
	c := &Cache{
		cfg:    cfg,
		policy: cfg.Policy,
		mapper: cfg.Mapper,
		lines:  newSetArray[Line](cfg.Sets, cfg.Ways),
	}
	c.allWays = make([]int, cfg.Ways)
	for i := range c.allWays {
		c.allWays[i] = i
	}
	c.candBuf = make([]int, 0, cfg.Ways)
	c.validBuf = make([]int, 0, cfg.Ways)
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters (state is untouched).
func (c *Cache) ResetStats() { c.stats = Stats{} }

// setIndex maps a line address through the configured index mapper.
func (c *Cache) setIndex(line mem.Addr) uint64 {
	return c.mapper.MapIndex(line, c.cfg.Sets)
}

// find returns the way holding addr's line, or -1.
func (c *Cache) find(line mem.Addr) (set int, way int) {
	set = int(c.setIndex(line))
	tag := line.LineIndex()
	lines := c.lines.set(set)
	for w := range lines {
		if l := &lines[w]; l.Valid() && l.Tag == tag {
			return set, w
		}
	}
	return set, -1
}

// Probe reports whether addr's line is present without updating
// replacement state or counters. Used by tests and by eviction-set
// verification.
func (c *Cache) Probe(addr mem.Addr) bool {
	_, way := c.find(addr.Line())
	return way >= 0
}

// ProbeState returns the line metadata if present.
func (c *Cache) ProbeState(addr mem.Addr) (Line, bool) {
	set, way := c.find(addr.Line())
	if way < 0 {
		return Line{}, false
	}
	return c.lines.set(set)[way], true
}

// Lookup performs a demand access for agent's load/store. On a hit it
// updates replacement state and returns hit=true. On a miss it returns
// hit=false; the caller decides whether to Fill.
func (c *Cache) Lookup(addr mem.Addr) (hit bool) {
	set, way := c.find(addr.Line())
	if way < 0 {
		c.stats.Misses++
		c.met.misses.Inc()
		return false
	}
	c.stats.Hits++
	c.met.hits.Inc()
	c.policy.OnAccess(set, way)
	return true
}

// fillCandidates returns the ways agent may fill under partitioning.
func (c *Cache) fillCandidates(agent int) []int {
	if c.cfg.PartitionWays == 0 {
		return c.allWays
	}
	lo := agent * c.cfg.PartitionWays
	hi := lo + c.cfg.PartitionWays
	if hi > c.cfg.Ways {
		// Agents beyond the partition count share the last slice.
		lo, hi = c.cfg.Ways-c.cfg.PartitionWays, c.cfg.Ways
	}
	cand := c.candBuf[:0]
	for w := lo; w < hi; w++ {
		cand = append(cand, w)
	}
	c.candBuf = cand
	return cand
}

// Fill installs addr's line for agent, marking it speculative when the
// installing load is unresolved. It returns the eviction it caused, if
// any.
func (c *Cache) Fill(addr mem.Addr, agent int, speculative bool, epoch uint64) (ev Eviction, evicted bool) {
	line := addr.Line()
	set := int(c.setIndex(line))
	tag := line.LineIndex()
	cand := c.fillCandidates(agent)
	lines := c.lines.set(set)

	// Prefer an invalid way within the partition.
	victim := -1
	for _, w := range cand {
		if !lines[w].Valid() {
			victim = w
			break
		}
	}
	if victim < 0 {
		valid := c.validBuf[:0]
		for _, w := range cand {
			if lines[w].Valid() {
				valid = append(valid, w)
			}
		}
		victim = c.policy.Victim(set, valid)
		old := &lines[victim]
		ev = Eviction{
			LineAddr:       mem.Addr(old.Tag << mem.LineShift),
			Dirty:          old.Dirty,
			WasSpeculative: old.Speculative,
		}
		evicted = true
		c.stats.Evictions++
		c.met.evictions.Inc()
		if old.Dirty {
			c.stats.DirtyEvicts++
			c.met.dirtyEvicts.Inc()
		}
	}
	lines[victim] = Line{
		Tag:         tag,
		State:       Exclusive,
		Speculative: speculative,
		Epoch:       epoch,
		Owner:       agent,
	}
	c.lines.touch(set)
	c.policy.OnFill(set, victim)
	c.stats.Fills++
	c.met.fills.Inc()
	return ev, evicted
}

// Invalidate removes addr's line if present, returning whether it was
// present and whether it was dirty.
func (c *Cache) Invalidate(addr mem.Addr) (present, dirty bool) {
	set, way := c.find(addr.Line())
	if way < 0 {
		return false, false
	}
	l := &c.lines.set(set)[way]
	dirty = l.Dirty
	*l = Line{}
	c.lines.touch(set)
	c.policy.OnInvalidate(set, way)
	c.stats.Invalidations++
	c.met.invalidations.Inc()
	return true, dirty
}

// Flush is the clflush path: invalidate and count separately.
func (c *Cache) Flush(addr mem.Addr) (present, dirty bool) {
	present, dirty = c.Invalidate(addr)
	c.stats.Flushes++
	c.met.flushes.Inc()
	return present, dirty
}

// MarkDirty sets the dirty bit and upgrades state to Modified for a
// store hit.
func (c *Cache) MarkDirty(addr mem.Addr) bool {
	set, way := c.find(addr.Line())
	if way < 0 {
		return false
	}
	l := &c.lines.set(set)[way]
	l.Dirty = true
	l.State = Modified
	c.lines.touch(set)
	return true
}

// Commit clears the speculative bit on addr's line (the installing load
// retired and the speculation was correct). A downgrade deferred while
// the line was speculative is applied now: the line turns Shared and
// Commit reports true.
func (c *Cache) Commit(addr mem.Addr) (downgraded bool) {
	set, way := c.find(addr.Line())
	if way < 0 {
		return false
	}
	l := &c.lines.set(set)[way]
	l.Speculative = false
	if l.DowngradeDeferred {
		l.DowngradeDeferred = false
		l.State = Shared
		downgraded = true
	}
	c.lines.touch(set)
	return downgraded
}

// DeferDowngrade marks addr's line, if present, for an M/E → S
// downgrade that Commit applies once the line stops being speculative.
func (c *Cache) DeferDowngrade(addr mem.Addr) {
	set, way := c.find(addr.Line())
	if way < 0 {
		return
	}
	c.lines.set(set)[way].DowngradeDeferred = true
	c.lines.touch(set)
}

// SetState overrides the coherence state of a present line (testing and
// coherence-lite transitions).
func (c *Cache) SetState(addr mem.Addr, st CoherenceState) bool {
	set, way := c.find(addr.Line())
	if way < 0 {
		return false
	}
	c.lines.set(set)[way].State = st
	c.lines.touch(set)
	return true
}

// CountDummyMiss records a dummy miss served to another agent hitting a
// speculatively installed line.
func (c *Cache) CountDummyMiss() {
	c.stats.DummyMisses++
	c.met.dummyMisses.Inc()
}

// SpeculativeLines returns the addresses of all currently speculative
// lines. The fuzzer's residue audit uses this; the rollback itself
// works from the load-queue records as CleanupSpec does. Sets never
// mutated since New hold only invalid lines and are skipped.
func (c *Cache) SpeculativeLines() []mem.Addr {
	var out []mem.Addr
	for s, st := range c.lines.stamp {
		if st == 0 {
			continue
		}
		lines := c.lines.set(s)
		for w := range lines {
			if l := &lines[w]; l.Valid() && l.Speculative {
				out = append(out, mem.Addr(l.Tag<<mem.LineShift))
			}
		}
	}
	return out
}

// SetOccupancy returns how many valid lines live in addr's set.
func (c *Cache) SetOccupancy(addr mem.Addr) int {
	set := int(c.setIndex(addr.Line()))
	n := 0
	for _, l := range c.lines.set(set) {
		if l.Valid() {
			n++
		}
	}
	return n
}

// StateFingerprint hashes the attacker-visible cache state: per
// set/way, which line is present, its coherence state, dirtiness and
// speculative mark. Invalid ways hash as zero — an invalid line keeps
// its stale Tag, which no probe can observe, so it must not perturb
// the fingerprint. Epoch, Owner and DowngradeDeferred are bookkeeping
// for rollback and the in-window rules, not probeable state, and are
// excluded too.
// The differential leak detector compares fingerprints of two runs
// that differ only in secret memory contents.
func (c *Cache) StateFingerprint() uint64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= fnvPrime
			x >>= 8
		}
	}
	for i := range c.lines.data {
		l := &c.lines.data[i]
		if !l.Valid() {
			mix(0)
			continue
		}
		mix(l.Tag)
		v := uint64(l.State)
		if l.Dirty {
			v |= 1 << 8
		}
		if l.Speculative {
			v |= 1 << 9
		}
		mix(v)
	}
	return h
}
