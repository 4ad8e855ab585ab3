package cache

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func smallCache(ways int, policy ReplacementPolicy) *Cache {
	return New(Config{Name: "t", Sets: 4, Ways: ways, HitLatency: 2, Policy: policy})
}

// addrFor builds an address landing in the given set of a 4-set cache.
func addrFor(set, tag int) mem.Addr {
	return mem.FromSetTag(4, uint64(set), uint64(tag))
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Name: "a", Sets: 0, Ways: 1},
		{Name: "b", Sets: 3, Ways: 1},
		{Name: "c", Sets: 4, Ways: 0},
		{Name: "d", Sets: 4, Ways: 2, PartitionWays: 3},
		{Name: "e", Sets: 4, Ways: 2, HitLatency: -1},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %q: expected validation error", cfg.Name)
		}
	}
	for _, cfg := range bad {
		var ce *ConfigError
		if err := cfg.Validate(); !errors.As(err, &ce) || ce.Name != cfg.Name {
			t.Errorf("config %q: Validate() = %v, want a *ConfigError naming the cache", cfg.Name, err)
		}
	}
	good := Config{Name: "ok", Sets: 64, Ways: 8, HitLatency: 2}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if got := good.SizeBytes(); got != 64*8*64 {
		t.Errorf("SizeBytes = %d", got)
	}
}

func TestMissThenHit(t *testing.T) {
	c := smallCache(2, nil)
	a := addrFor(1, 7)
	if c.Lookup(a) {
		t.Fatal("cold lookup should miss")
	}
	c.Fill(a, 0, false, 0)
	if !c.Lookup(a) {
		t.Fatal("lookup after fill should hit")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Fills != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestSameLineDifferentOffsets(t *testing.T) {
	c := smallCache(2, nil)
	c.Fill(0x100, 0, false, 0)
	for off := mem.Addr(0); off < 64; off += 8 {
		if !c.Lookup(0x100 + off) {
			t.Fatalf("offset %d should hit the filled line", off)
		}
	}
	if c.Lookup(0x140) {
		t.Fatal("next line must miss")
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := smallCache(2, NewLRU(4, 2))
	a, b, d := addrFor(0, 1), addrFor(0, 2), addrFor(0, 3)
	c.Fill(a, 0, false, 0)
	c.Fill(b, 0, false, 0)
	c.Lookup(a) // a is now MRU, b is LRU
	ev, evicted := c.Fill(d, 0, false, 0)
	if !evicted {
		t.Fatal("full set fill must evict")
	}
	if ev.LineAddr != b.Line() {
		t.Fatalf("LRU should have evicted %s, got %s", b, ev.LineAddr)
	}
	if !c.Probe(a) || c.Probe(b) || !c.Probe(d) {
		t.Fatal("wrong set contents after eviction")
	}
}

func TestEvictionReportsDirty(t *testing.T) {
	c := smallCache(1, nil)
	a, b := addrFor(2, 1), addrFor(2, 2)
	c.Fill(a, 0, false, 0)
	c.MarkDirty(a)
	ev, evicted := c.Fill(b, 0, false, 0)
	if !evicted || !ev.Dirty {
		t.Fatalf("expected dirty eviction, got %+v evicted=%v", ev, evicted)
	}
	if c.Stats().DirtyEvicts != 1 {
		t.Fatal("dirty-evict counter not bumped")
	}
}

func TestInvalidateAndFlush(t *testing.T) {
	c := smallCache(2, nil)
	a := addrFor(3, 9)
	c.Fill(a, 0, false, 0)
	present, dirty := c.Invalidate(a)
	if !present || dirty {
		t.Fatalf("invalidate present=%v dirty=%v", present, dirty)
	}
	if c.Probe(a) {
		t.Fatal("line survives invalidation")
	}
	if present, _ := c.Flush(a); present {
		t.Fatal("double invalidate should report absent")
	}
	if c.Stats().Invalidations != 1 || c.Stats().Flushes != 1 {
		t.Fatalf("stats %+v", c.Stats())
	}
}

func TestSpeculativeMarkAndCommit(t *testing.T) {
	c := smallCache(2, nil)
	a := addrFor(0, 4)
	c.Fill(a, 0, true, 7)
	if lines := c.SpeculativeLines(); len(lines) != 1 || lines[0] != a.Line() {
		t.Fatalf("speculative lines %v", lines)
	}
	c.Commit(a)
	if len(c.SpeculativeLines()) != 0 {
		t.Fatal("commit did not clear speculative bit")
	}
}

// TestCommitAppliesDeferredDowngrade: a downgrade deferred on a
// speculative line is applied, and reported, by the Commit that ends
// the speculation; a plain Commit reports nothing, and the mark leaves
// with an invalidated line.
func TestCommitAppliesDeferredDowngrade(t *testing.T) {
	c := smallCache(4, nil)
	a, b := addrFor(0, 1), addrFor(1, 1)
	c.Fill(a, 0, true, 3)
	c.Fill(b, 0, true, 5)
	c.DeferDowngrade(a)
	c.DeferDowngrade(b)
	c.DeferDowngrade(addrFor(2, 1)) // absent: no effect
	if l, _ := c.ProbeState(a); l.State != Exclusive || !l.DowngradeDeferred {
		t.Fatalf("deferred line %+v in the window, want E and marked", l)
	}
	if !c.Commit(a) {
		t.Fatal("Commit did not report the deferred downgrade")
	}
	if l, _ := c.ProbeState(a); l.State != Shared || l.Speculative || l.DowngradeDeferred {
		t.Fatalf("committed line %+v, want S, non-speculative, unmarked", l)
	}
	if c.Commit(a) {
		t.Fatal("second Commit re-applied the downgrade")
	}
	c.Invalidate(b)
	c.Fill(b, 0, true, 6)
	if c.Commit(b) {
		t.Fatal("the deferred downgrade survived the line's invalidation")
	}
}

func TestNoMoPartitioning(t *testing.T) {
	// 4 ways, 2 per agent: agent 0 fills ways 0-1, agent 1 ways 2-3.
	c := New(Config{Name: "p", Sets: 4, Ways: 4, PartitionWays: 2})
	a0, a1 := addrFor(0, 1), addrFor(0, 2)
	b0, b1, b2 := addrFor(0, 3), addrFor(0, 4), addrFor(0, 5)
	c.Fill(a0, 0, false, 0)
	c.Fill(a1, 0, false, 0)
	// Agent 1 fills three lines into its two ways: must never evict
	// agent 0's lines.
	c.Fill(b0, 1, false, 0)
	c.Fill(b1, 1, false, 0)
	_, evicted := c.Fill(b2, 1, false, 0)
	if !evicted {
		t.Fatal("agent 1's third fill must evict within its partition")
	}
	if !c.Probe(a0) || !c.Probe(a1) {
		t.Fatal("partitioning violated: agent 0's lines were evicted")
	}
}

func TestRandomPolicyDeterministicPerSeed(t *testing.T) {
	pick := func(seed int64) []int {
		p := NewRandom(seed)
		out := make([]int, 16)
		for i := range out {
			out[i] = p.Victim(0, []int{0, 1, 2, 3, 4, 5, 6, 7})
		}
		return out
	}
	a, b := pick(42), pick(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give identical victim sequence")
		}
	}
	c := pick(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should (overwhelmingly) differ")
	}
}

func TestRandomPolicyCoversAllWays(t *testing.T) {
	p := NewRandom(1)
	seen := map[int]bool{}
	cand := []int{0, 1, 2, 3}
	for i := 0; i < 400; i++ {
		seen[p.Victim(0, cand)] = true
	}
	if len(seen) != 4 {
		t.Fatalf("random policy only ever picked %d of 4 ways", len(seen))
	}
}

func TestTreePLRUBasic(t *testing.T) {
	p := NewTreePLRU(1, 4)
	// Touch ways 0..3 in order; PLRU victim should then avoid 3 (MRU).
	for w := 0; w < 4; w++ {
		p.OnFill(0, w)
	}
	v := p.Victim(0, []int{0, 1, 2, 3})
	if v == 3 {
		t.Fatal("tree-PLRU picked the MRU way")
	}
}

func TestTreePLRUNeverEvictsJustTouched(t *testing.T) {
	p := NewTreePLRU(1, 8)
	cand := []int{0, 1, 2, 3, 4, 5, 6, 7}
	last := -1
	for i := 0; i < 64; i++ {
		v := p.Victim(0, cand)
		if v == last {
			t.Fatalf("iteration %d: evicted the way touched immediately before", i)
		}
		p.OnFill(0, v)
		last = v
	}
}

func TestFillPrefersInvalidWay(t *testing.T) {
	c := smallCache(4, nil)
	c.Fill(addrFor(0, 1), 0, false, 0)
	_, evicted := c.Fill(addrFor(0, 2), 0, false, 0)
	if evicted {
		t.Fatal("fill into a set with invalid ways must not evict")
	}
}

func TestOccupancyInvariant(t *testing.T) {
	// Property: occupancy of a set never exceeds ways, and filling the
	// same line twice does not duplicate it.
	f := func(tags []uint8) bool {
		c := smallCache(2, nil)
		for _, tg := range tags {
			a := addrFor(1, int(tg))
			if !c.Lookup(a) {
				c.Fill(a, 0, false, 0)
			}
			if c.SetOccupancy(a) > 2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLookupAfterFillAlwaysHitsProperty(t *testing.T) {
	f := func(raw uint32) bool {
		c := New(Config{Name: "q", Sets: 64, Ways: 8})
		a := mem.Addr(raw)
		c.Fill(a, 0, false, 0)
		return c.Lookup(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSetStateTransitions(t *testing.T) {
	c := smallCache(2, nil)
	a := addrFor(0, 1)
	if c.SetState(a, Shared) {
		t.Fatal("SetState on absent line should fail")
	}
	c.Fill(a, 0, false, 0)
	if !c.SetState(a, Shared) {
		t.Fatal("SetState on present line should succeed")
	}
	l, ok := c.ProbeState(a)
	if !ok || l.State != Shared {
		t.Fatalf("state %v ok=%v", l.State, ok)
	}
}

func TestCoherenceStateString(t *testing.T) {
	for st, want := range map[CoherenceState]string{Invalid: "I", Shared: "S", Exclusive: "E", Modified: "M", 9: "?"} {
		if got := st.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", st, got, want)
		}
	}
}

// validLines counts the cache's valid lines.
func validLines(c *Cache) int {
	n := 0
	for _, l := range c.lines.data {
		if l.Valid() {
			n++
		}
	}
	return n
}

func TestValidLines(t *testing.T) {
	c := smallCache(2, nil)
	if validLines(c) != 0 {
		t.Fatal("fresh cache not empty")
	}
	c.Fill(addrFor(0, 1), 0, false, 0)
	c.Fill(addrFor(1, 1), 0, false, 0)
	if n := validLines(c); n != 2 {
		t.Fatalf("valid lines = %d, want 2", n)
	}
}

func TestLRUVictimFallback(t *testing.T) {
	// Victim must cope with candidates the policy has never seen.
	p := NewLRU(4, 4)
	if v := p.Victim(0, []int{2, 3}); v != 2 && v != 3 {
		t.Fatalf("victim %d outside candidates", v)
	}
}

// TestConfigValidateRejectsOverflow: a geometry whose line count or
// byte size overflows int fails validation with a *ConfigError instead
// of panicking in New's allocation.
func TestConfigValidateRejectsOverflow(t *testing.T) {
	for _, cfg := range []Config{
		{Name: "lines", Sets: 1 << 62, Ways: 4},
		{Name: "bytes", Sets: 1 << 57, Ways: 1},
		{Name: "ways", Sets: 1, Ways: math.MaxInt},
		{Name: "both", Sets: 1 << 40, Ways: 1 << 40},
	} {
		var ce *ConfigError
		if err := cfg.Validate(); !errors.As(err, &ce) || ce.Field != "Sets" {
			t.Errorf("%s: Validate() = %v, want a *ConfigError on Sets", cfg.Name, err)
		}
	}
	edge := Config{Name: "edge", Sets: 1 << 54, Ways: 2}
	if err := edge.Validate(); err != nil {
		t.Errorf("largest representable geometry rejected: %v", err)
	}
}

// TestNewAllocationsIndependentOfSets pins the flat layout: building a
// cache costs the same number of allocations at 4 sets as at 2,048.
func TestNewAllocationsIndependentOfSets(t *testing.T) {
	allocs := func(sets int) float64 {
		return testing.AllocsPerRun(20, func() { New(Config{Name: "a", Sets: sets, Ways: 16}) })
	}
	if small, large := allocs(4), allocs(2048); large > small {
		t.Fatalf("New allocates %.0f times at 2048 sets, %.0f at 4", large, small)
	}
}

// TestSnapshotSkipsUntouchedSets: a cold snapshot stores no lines, a
// warm one stores only the mutated sets, and restoring either brings
// back the captured state exactly, under every built-in policy.
func TestSnapshotSkipsUntouchedSets(t *testing.T) {
	for _, policy := range []func() ReplacementPolicy{
		func() ReplacementPolicy { return nil },
		func() ReplacementPolicy { return NewRandom(3) },
		func() ReplacementPolicy { return NewTreePLRU(4, 2) },
	} {
		c := smallCache(2, policy())
		cold := c.Snapshot()
		if len(cold.lines.sets) != 0 || len(cold.lines.data) != 0 {
			t.Fatalf("cold snapshot stored %d sets", len(cold.lines.sets))
		}
		for tag := 1; tag <= 3; tag++ { // the third fill evicts
			c.Fill(addrFor(1, tag), 0, tag == 3, 0)
		}
		c.Lookup(addrFor(1, 2))
		warm, warmPrint := c.Snapshot(), c.StateFingerprint()
		if len(warm.lines.sets) != 1 || warm.lines.sets[0] != 1 {
			t.Fatalf("warm snapshot stored sets %v, want [1]", warm.lines.sets)
		}
		c.Fill(addrFor(1, 4), 0, false, 0)
		c.Fill(addrFor(2, 1), 0, true, 0)
		c.Restore(cold)
		if validLines(c) != 0 || len(c.SpeculativeLines()) != 0 || c.Stats() != (Stats{}) {
			t.Fatalf("%s: cold restore left %d lines, stats %+v", c.policy.Name(), validLines(c), c.Stats())
		}
		c.Restore(warm)
		if c.StateFingerprint() != warmPrint {
			t.Fatalf("%s: warm restore fingerprint differs", c.policy.Name())
		}
		// The replacement order came back too: the next victim in set 1
		// is the same as it was at the snapshot.
		ev1, _ := c.Fill(addrFor(1, 5), 0, false, 0)
		c.Restore(warm)
		ev2, _ := c.Fill(addrFor(1, 5), 0, false, 0)
		if ev1 != ev2 {
			t.Fatalf("%s: victim after restore %+v, first time %+v", c.policy.Name(), ev2, ev1)
		}
	}
}

// TestRestoreAllocatesNothing: rewinding a cache, LRU policy included,
// to a cold or a warm snapshot does not allocate.
func TestRestoreAllocatesNothing(t *testing.T) {
	c := New(Config{Name: "r", Sets: 64, Ways: 8})
	cold := c.Snapshot()
	c.Fill(0x1000, 0, false, 0)
	warm := c.Snapshot()
	for name, s := range map[string]*Snapshot{"cold": cold, "warm": warm} {
		if avg := testing.AllocsPerRun(20, func() {
			c.Fill(0x2040, 0, true, 1)
			c.Restore(s)
		}); avg != 0 {
			t.Errorf("%s restore allocates %.1f times", name, avg)
		}
	}
}
