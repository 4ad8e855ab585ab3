package memsys

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/randmap"
)

func defaultHierarchy(t *testing.T) *Hierarchy {
	t.Helper()
	h, err := New(DefaultConfig(1), mem.NewMemory())
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// agents builds two agents with private L1Ds over one L2 and backing
// memory, wired as coherence peers — the hierarchies of a two-core
// multicore.System without the pipelines. Agent 0 is the owner that
// installs lines speculatively, agent 1 the reader.
func agents(t *testing.T, cfg Config) (owner, reader *Hierarchy) {
	t.Helper()
	backing := mem.NewMemory()
	l2 := cache.New(cfg.L2)
	owner, err := NewShared(cfg, backing, nil, l2, 0)
	if err != nil {
		t.Fatal(err)
	}
	reader, err = NewShared(cfg, backing, nil, l2, 1)
	if err != nil {
		t.Fatal(err)
	}
	owner.AttachPeerL1(reader.L1D())
	reader.AttachPeerL1(owner.L1D())
	return owner, reader
}

// noDummyConfig turns dummy misses off so a reader's hit on the owner's
// speculative line reaches the delayed-downgrade rule.
func noDummyConfig(seed int64) Config {
	cfg := DefaultConfig(seed)
	cfg.DummyMissOnSpecHit = false
	return cfg
}

func TestDefaultConfigMatchesTableI(t *testing.T) {
	cfg := DefaultConfig(0)
	if got := cfg.L1I.SizeBytes(); got != 32*1024 {
		t.Errorf("L1I size %d, want 32 KiB", got)
	}
	if cfg.L1I.Sets != 128 || cfg.L1I.Ways != 4 {
		t.Errorf("L1I geometry %d sets × %d ways, want 128×4", cfg.L1I.Sets, cfg.L1I.Ways)
	}
	if got := cfg.L1D.SizeBytes(); got != 32*1024 {
		t.Errorf("L1D size %d, want 32 KiB", got)
	}
	if cfg.L1D.Sets != 64 || cfg.L1D.Ways != 8 {
		t.Errorf("L1D geometry %d sets × %d ways, want 64×8", cfg.L1D.Sets, cfg.L1D.Ways)
	}
	if got := cfg.L2.SizeBytes(); got != 2*1024*1024 {
		t.Errorf("L2 size %d, want 2 MiB", got)
	}
	if cfg.L2.Sets != 2048 || cfg.L2.Ways != 16 {
		t.Errorf("L2 geometry %d sets × %d ways, want 2048×16", cfg.L2.Sets, cfg.L2.Ways)
	}
	if cfg.MemLatency != 100 {
		t.Errorf("memory latency %d cycles, want 100 (50 ns at 2 GHz)", cfg.MemLatency)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReadLatencyLadder(t *testing.T) {
	h := defaultHierarchy(t)
	cfg := h.Config()
	addr := mem.Addr(0x10000)

	cold := h.Read(addr, false, 0, 0)
	wantCold := cfg.L1D.HitLatency + cfg.L2.HitLatency + cfg.MemLatency
	if cold.Latency != wantCold || !cold.MemAccess {
		t.Fatalf("cold read latency %d memAccess=%v, want %d true", cold.Latency, cold.MemAccess, wantCold)
	}

	warm := h.Read(addr, false, 0, 0)
	if warm.Latency != cfg.L1D.HitLatency || !warm.L1Hit {
		t.Fatalf("L1 hit latency %d, want %d", warm.Latency, cfg.L1D.HitLatency)
	}

	// Evict from L1 only; next read should be an L2 hit.
	h.L1D().Invalidate(addr)
	l2hit := h.Read(addr, false, 0, 0)
	wantL2 := cfg.L1D.HitLatency + cfg.L2.HitLatency
	if l2hit.Latency != wantL2 || !l2hit.L2Hit {
		t.Fatalf("L2 hit latency %d, want %d", l2hit.Latency, wantL2)
	}
}

func TestReadReturnsArchitecturalValue(t *testing.T) {
	backing := mem.NewMemory()
	backing.WriteWord(0x2000, 1234)
	h := MustNew(DefaultConfig(1), backing)
	if got := h.Read(0x2000, false, 0, 0).Value; got != 1234 {
		t.Fatalf("read value %d, want 1234", got)
	}
}

func TestSpeculativeMarkPropagates(t *testing.T) {
	h := defaultHierarchy(t)
	addr := mem.Addr(0x3000)
	h.Read(addr, true, 9, 0)
	l1, ok1 := h.L1D().ProbeState(addr)
	l2, ok2 := h.L2().ProbeState(addr)
	if !ok1 || !ok2 || !l1.Speculative || !l2.Speculative || l1.Epoch != 9 {
		t.Fatalf("speculative marks l1=%+v l2=%+v", l1, l2)
	}
	h.CommitLine(addr)
	l1, _ = h.L1D().ProbeState(addr)
	l2, _ = h.L2().ProbeState(addr)
	if l1.Speculative || l2.Speculative {
		t.Fatal("commit did not clear speculative marks")
	}
}

func TestInvalidateTransient(t *testing.T) {
	h := defaultHierarchy(t)
	addr := mem.Addr(0x4000)
	h.Read(addr, true, 1, 0)
	inL1, inL2 := h.InvalidateTransient(addr)
	if !inL1 || !inL2 {
		t.Fatalf("transient line not found: l1=%v l2=%v", inL1, inL2)
	}
	p1, p2 := h.Probe(addr)
	if p1 || p2 {
		t.Fatal("line survived invalidation")
	}
}

func TestRestoreL1FromL2(t *testing.T) {
	h := defaultHierarchy(t)
	victim := mem.Addr(0x5000)
	h.Read(victim, false, 0, 0) // in L1 and L2
	h.L1D().Invalidate(victim)  // simulate displacement by a transient fill
	fromL2 := h.RestoreL1(victim)
	if !fromL2 {
		t.Fatal("restore should have been serviced from L2")
	}
	if in1, _ := h.Probe(victim); !in1 {
		t.Fatal("restore did not reinstall line in L1")
	}
	if h.Stats().RestorationsFromL2 != 1 {
		t.Fatal("restoration counter wrong")
	}
}

func TestRestoreL1FallsBackToMemory(t *testing.T) {
	h := defaultHierarchy(t)
	victim := mem.Addr(0x6000)
	h.Read(victim, false, 0, 0)
	h.L1D().Invalidate(victim)
	h.L2().Invalidate(victim)
	if fromL2 := h.RestoreL1(victim); fromL2 {
		t.Fatal("restore claimed L2 service after L2 invalidation")
	}
	in1, in2 := h.Probe(victim)
	if !in1 || !in2 {
		t.Fatal("memory-serviced restore must refill both levels (inclusive)")
	}
}

func TestFlushRemovesFromAllLevels(t *testing.T) {
	h := defaultHierarchy(t)
	addr := mem.Addr(0x7000)
	h.Read(addr, false, 0, 0)
	h.Flush(addr)
	in1, in2 := h.Probe(addr)
	if in1 || in2 {
		t.Fatal("flush left the line somewhere")
	}
	// Flushed line reads cold again — this is what resets the probe
	// array between attack rounds.
	r := h.Read(addr, false, 0, 0)
	if !r.MemAccess {
		t.Fatal("post-flush read should go to memory")
	}
}

func TestWriteAllocateAndDirty(t *testing.T) {
	h := defaultHierarchy(t)
	addr := mem.Addr(0x8000)
	res := h.Write(addr, 77, 0)
	if res.L1Hit {
		t.Fatal("cold write should miss")
	}
	if h.Memory().ReadWord(addr) != 77 {
		t.Fatal("write did not reach backing memory")
	}
	l, ok := h.L1D().ProbeState(addr)
	if !ok || !l.Dirty || l.State != cache.Modified {
		t.Fatalf("line after write: %+v ok=%v", l, ok)
	}
	res2 := h.Write(addr, 78, 0)
	if !res2.L1Hit || res2.Latency != h.Config().L1D.HitLatency {
		t.Fatalf("warm write latency %d", res2.Latency)
	}
}

func TestDummyMissOnSpeculativeLine(t *testing.T) {
	owner, reader := agents(t, DefaultConfig(1))
	addr := mem.Addr(0x9000)
	owner.Read(addr, true, 2, 0) // transient install by the protected core
	res := reader.Read(addr, false, 0, 0)
	if !res.Dummy {
		t.Fatal("cross-agent hit on speculative line must be a dummy miss")
	}
	cfg := reader.Config()
	wantLat := cfg.L1D.HitLatency + cfg.L2.HitLatency + cfg.MemLatency
	if res.Latency != wantLat {
		t.Fatalf("dummy miss latency %d, want %d (indistinguishable from a miss)", res.Latency, wantLat)
	}
	// After commit the same access is a genuine hit.
	owner.CommitLine(addr)
	reader.L1D().Invalidate(addr) // drop the reader's private copy
	res = reader.Read(addr, false, 0, 0)
	if res.Dummy || !res.L2Hit {
		t.Fatalf("post-commit cross read: %+v", res)
	}
}

func TestDummyMissDisabledInUnsafeConfig(t *testing.T) {
	owner, reader := agents(t, UnsafeConfig())
	addr := mem.Addr(0xa000)
	owner.Read(addr, true, 2, 0)
	res := reader.Read(addr, false, 0, 0)
	if res.Dummy {
		t.Fatal("unsafe baseline must not serve dummy misses")
	}
	if !res.L2Hit {
		t.Fatal("cross read should hit the transiently installed line — the classic leak")
	}
}

func TestDelayedCoherenceDowngrade(t *testing.T) {
	// Dummy misses off isolates the downgrade rule: the shared line is
	// visible to the reader.
	owner, reader := agents(t, noDummyConfig(2))
	addr := mem.Addr(0xb000)
	owner.Read(addr, true, 3, 0)
	res := reader.Read(addr, false, 0, 0)
	if !res.L2Hit {
		t.Fatal("expected L2 hit")
	}
	if got := reader.Stats().DelayedDowngrades; got != 1 {
		t.Fatalf("downgrade not deferred: delayed=%d", got)
	}
	l, _ := owner.L2().ProbeState(addr)
	if l.State == cache.Shared {
		t.Fatal("downgrade applied during speculation window")
	}
	owner.CommitLine(addr)
	l, _ = owner.L2().ProbeState(addr)
	if l.State != cache.Shared {
		t.Fatalf("deferred downgrade not applied on commit: state %v", l.State)
	}
	if l.DowngradeDeferred {
		t.Fatal("deferred downgrade still marked after commit")
	}
}

func TestSquashedLineDropsPendingDowngrade(t *testing.T) {
	owner, reader := agents(t, noDummyConfig(3))
	addr := mem.Addr(0xc000)
	owner.Read(addr, true, 4, 0)
	reader.Read(addr, false, 0, 0)
	if l, _ := owner.L2().ProbeState(addr); !l.DowngradeDeferred {
		t.Fatal("expected a deferred downgrade on the shared line")
	}
	owner.InvalidateTransient(addr)
	// A fresh install of the same line carries no stale downgrade.
	owner.Read(addr, true, 5, 0)
	owner.CommitLine(addr)
	if l, _ := owner.L2().ProbeState(addr); l.State != cache.Exclusive || owner.Stats().AppliedDowngrades != 0 {
		t.Fatalf("invalidation must drop the deferred downgrade for the dead line: state %v, applied %d",
			l.State, owner.Stats().AppliedDowngrades)
	}
}

func TestMSHRRecordsVictim(t *testing.T) {
	h := defaultHierarchy(t)
	// Fill one L1 set completely with non-speculative lines, then a
	// speculative read into the same set must record its victim.
	sets, ways := h.Config().L1D.Sets, h.Config().L1D.Ways
	base := mem.Addr(0x100000)
	set := base.SetIndex(sets)
	for i := 0; i < ways; i++ {
		a := mem.FromSetTag(sets, set, base.Tag(sets)+uint64(i))
		h.Read(a, false, 0, 0)
		h.TickMSHR(1_000_000)
	}
	trans := mem.FromSetTag(sets, set, base.Tag(sets)+uint64(ways))
	res := h.Read(trans, true, 5, 0)
	if !res.HasL1Victim {
		t.Fatal("transient fill into a full set must evict")
	}
	entries := h.MSHR().SpeculativeEntries(5)
	if len(entries) != 1 || !entries[0].HasVictim {
		t.Fatalf("MSHR victim record missing: %+v", entries)
	}
	if entries[0].EvictedL1 != res.L1VictimAddr {
		t.Fatal("MSHR victim identity disagrees with access result")
	}
}

func TestInstructionFetchPath(t *testing.T) {
	h := defaultHierarchy(t)
	pc := mem.Addr(0x400000)
	cold := h.FetchInst(pc, 0)
	cfg := h.Config()
	if cold != cfg.L1I.HitLatency+cfg.L2.HitLatency+cfg.MemLatency {
		t.Fatalf("cold fetch latency %d", cold)
	}
	warm := h.FetchInst(pc, 1)
	if warm != cfg.L1I.HitLatency {
		t.Fatalf("warm fetch latency %d", warm)
	}
}

func TestInclusionBackInvalidation(t *testing.T) {
	// Build a tiny L2 so we can overflow one L2 set and verify that L1
	// copies of the L2 victim disappear (inclusive hierarchy).
	cfg := DefaultConfig(4)
	cfg.L2 = cache.Config{Name: "l2", Sets: 2, Ways: 2, HitLatency: 16}
	h := MustNew(cfg, nil)

	l2sets := cfg.L2.Sets
	a := mem.FromSetTag(l2sets, 0, 1)
	b := mem.FromSetTag(l2sets, 0, 2)
	c := mem.FromSetTag(l2sets, 0, 3)
	h.Read(a, false, 0, 0)
	h.Read(b, false, 0, 0)
	h.Read(c, false, 0, 0) // evicts a or b from L2
	in2a := h.L2().Probe(a)
	in2b := h.L2().Probe(b)
	if in2a && in2b {
		t.Fatal("L2 set should have overflowed")
	}
	evicted := a
	if in2a {
		evicted = b
	}
	if h.L1D().Probe(evicted) {
		t.Fatal("L2 victim still present in L1 — inclusion violated")
	}
	if h.Stats().BackInvalidations == 0 {
		t.Fatal("back-invalidation not counted")
	}
}

func TestRandomizedL2Mapping(t *testing.T) {
	cfg := DefaultConfig(5)
	mapper := randmap.NewFeistel(0xfeed)
	cfg.L2.Mapper = mapper
	h := MustNew(cfg, nil)
	// Consecutive lines should not land in consecutive L2 sets.
	consecutive := 0
	var prev uint64
	for i := 0; i < 64; i++ {
		s := mapper.MapIndex(mem.Addr(i*mem.LineSize), cfg.L2.Sets)
		if i > 0 && s == prev+1 {
			consecutive++
		}
		prev = s
	}
	if consecutive > 8 {
		t.Fatalf("%d/63 consecutive-set pairs — mapping looks like identity", consecutive)
	}
	// And the cache still functions, placing lines where the mapper says.
	a := mem.Addr(0x123440)
	h.Read(a, false, 0, 0)
	if r := h.Read(a, false, 0, 0); !r.L1Hit {
		t.Fatal("second read should hit")
	}
	for i := 1; ; i++ {
		// A line in a's identity set that the mapper sends elsewhere.
		b := a + mem.Addr(i*cfg.L2.Sets*mem.LineSize)
		if mapper.MapIndex(b.Line(), cfg.L2.Sets) == mapper.MapIndex(a.Line(), cfg.L2.Sets) {
			continue
		}
		if h.L2().SetOccupancy(a) != 1 || h.L2().SetOccupancy(b) != 0 {
			t.Fatalf("L2 set occupancy %d at the mapped set, %d at a's identity set, want 1 and 0",
				h.L2().SetOccupancy(a), h.L2().SetOccupancy(b))
		}
		break
	}
}

func TestMSHRStallPenalty(t *testing.T) {
	cfg := DefaultConfig(6)
	cfg.MSHREntries = 1
	h := MustNew(cfg, nil)
	h.Read(0x1000, false, 0, 0) // occupies the single MSHR until cycle ~118
	res := h.Read(0x2000, false, 0, 0)
	if !res.MSHRStall {
		t.Fatal("second concurrent miss should stall on MSHR")
	}
	if res.Latency <= cfg.L1D.HitLatency+cfg.L2.HitLatency+cfg.MemLatency {
		t.Fatal("stalled miss should pay an extra penalty")
	}
}

func TestValidateRejectsBadConfig(t *testing.T) {
	cfg := DefaultConfig(0)
	cfg.MemLatency = -1
	if _, err := New(cfg, nil); err == nil {
		t.Fatal("negative memory latency accepted")
	}
	cfg = DefaultConfig(0)
	cfg.L2.Sets = 3
	if _, err := New(cfg, nil); err == nil {
		t.Fatal("non-power-of-two L2 accepted")
	}
}
