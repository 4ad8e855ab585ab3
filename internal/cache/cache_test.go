package cache

import (
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

func TestValidLines(t *testing.T) {
	c := smallCache(2, nil)
	if c.ValidLines() != 0 {
		t.Fatal("fresh cache not empty")
	}
	c.Fill(addrFor(0, 1), 0, false, 0)
	c.Fill(addrFor(1, 1), 0, false, 0)
	if c.ValidLines() != 2 {
		t.Fatalf("ValidLines = %d, want 2", c.ValidLines())
	}
}

func TestLRUVictimFallback(t *testing.T) {
	// Victim must cope with candidates the policy has never seen.
	p := NewLRU(4, 4)
	if v := p.Victim(0, []int{2, 3}); v != 2 && v != 3 {
		t.Fatalf("victim %d outside candidates", v)
	}
}
