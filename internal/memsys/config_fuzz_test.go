package memsys_test

import (
	"errors"
	"testing"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/memsys"
	"repro/internal/noise"
	"repro/internal/randmap"
	"repro/internal/undo"
)

// fuzzProgram touches every hierarchy path the core drives: cold and
// warm loads, a store, a flush, a fence and a mispredicted loop exit
// whose shadow load the undo scheme must clean up.
func fuzzProgram() *isa.Program {
	b := isa.NewBuilder()
	b.Const(1, 0x30000).Const(2, 0).Const(3, 3)
	b.Label("loop").
		Load(4, 1, 0).
		Store(1, 8, 4).
		Load(5, 1, 8).
		Flush(1, 64).
		AddI(2, 2, 1).
		AddI(1, 1, 4096).
		BranchLT(2, 3, "loop").
		Fence().
		Load(6, 1, 128).
		Halt()
	return b.MustBuild()
}

// FuzzConfig drives Config.Validate, New, a short access sequence and
// a short program with arbitrary hierarchies. The raw configuration
// must validate or fail with a *ConfigError of this package or of
// package cache, whatever its sizes. Sets and ways are then folded into
// [-1, 256] and [-1, 16] so no input asks for a huge allocation;
// latencies, the MSHR count and the CleanupSpec switches pass through
// raw. A configuration that validates must build a hierarchy, survive
// the accesses without a negative latency, save and restore its state,
// and run the program on a CleanupSpec core to completion or to a
// watchdog error. It never panics.
func FuzzConfig(f *testing.F) {
	// Table I's geometry with the L2 cut to 256 sets, inside the fold.
	f.Add(int64(128), int64(4), int64(64), int64(8), int64(0), int64(256), int64(16), int64(1), int64(2), int64(16),
		int64(100), int64(16), true, true, uint8(1), []byte("\x00\x01\x08\x01\x01\x02\x02\x01\x03\x03\x04\x01\x05\x02\x06\x01\x07\x04"))
	size := func(v int64, n int) int {
		if v >= -1 && v <= int64(n) {
			return int(v)
		}
		m := int64(n) + 2
		return int((v%m+m)%m) - 1
	}
	typed := func(t *testing.T, cfg memsys.Config, err error) {
		var me *memsys.ConfigError
		var ce *cache.ConfigError
		if err != nil && !errors.As(err, &me) && !errors.As(err, &ce) {
			t.Fatalf("%+v: Validate() = %v, not a typed config error", cfg, err)
		}
	}
	prog := fuzzProgram()
	f.Fuzz(func(t *testing.T, iSets, iWays, dSets, dWays, dPart, l2Sets, l2Ways, iLat, dLat, l2Lat, memLat, mshrs int64,
		delay, dummy bool, policy uint8, ops []byte) {
		build := func(fold func(int64, int) int) memsys.Config {
			return memsys.Config{
				L1I:                     cache.Config{Name: "l1i", Sets: fold(iSets, 256), Ways: fold(iWays, 16), HitLatency: int(iLat)},
				L1D:                     cache.Config{Name: "l1d", Sets: fold(dSets, 256), Ways: fold(dWays, 16), PartitionWays: fold(dPart, 16), HitLatency: int(dLat)},
				L2:                      cache.Config{Name: "l2", Sets: fold(l2Sets, 256), Ways: fold(l2Ways, 16), HitLatency: int(l2Lat)},
				MemLatency:              int(memLat),
				MSHREntries:             int(mshrs),
				DelayCoherenceDowngrade: delay,
				DummyMissOnSpecHit:      dummy,
			}
		}
		raw := build(func(v int64, _ int) int { return int(v) })
		typed(t, raw, raw.Validate())
		cfg := build(size)
		if err := cfg.Validate(); err != nil {
			typed(t, cfg, err)
			if _, err := memsys.New(cfg, nil); err == nil {
				t.Fatalf("%+v: New accepted a config Validate rejects", cfg)
			}
			return
		}
		switch policy % 3 {
		case 1:
			cfg.L1D.Policy = cache.NewRandom(int64(policy))
		case 2:
			cfg.L1D.Policy = cache.NewLRU(cfg.L1D.Sets, cfg.L1D.Ways)
		}
		if policy&4 != 0 {
			cfg.L2.Mapper = randmap.NewFeistel(uint64(policy))
		}
		h, err := memsys.New(cfg, nil)
		if err != nil {
			t.Fatalf("%+v: New = %v after Validate passed", cfg, err)
		}
		if len(ops) > 128 {
			ops = ops[:128]
		}
		st := h.SaveState()
		for i := 0; i+1 < len(ops); i += 2 {
			op, now := ops[i], uint64(i)
			// Lines spread over a few L1 sets with many tags each, so
			// fills evict at every level.
			addr := mem.Addr(uint64(ops[i+1]) * uint64(cfg.L1D.Sets/4+1) << mem.LineShift)
			lat := 0
			switch op % 8 {
			case 0:
				lat = h.Read(addr, op&8 != 0, uint64(op>>4), now).Latency
			case 1:
				lat = h.ReadShadow(addr, uint64(op>>4), now).Latency
			case 2:
				lat = h.Write(addr, uint64(op), now).Latency
			case 3:
				lat = h.FetchInst(addr, now)
			case 4:
				lat = h.Flush(addr)
			case 5:
				h.CommitLine(addr)
			case 6:
				h.InvalidateTransient(addr)
				h.RestoreL1(addr)
			case 7:
				h.TickMSHR(now)
				h.NextWakeup(now)
			}
			if lat < 0 {
				t.Fatalf("%+v: op %d on %s took %d cycles", cfg, op%8, addr, lat)
			}
		}
		h.RestoreState(st)

		coreCfg := cpu.DefaultConfig()
		coreCfg.MaxCycles = 20_000
		core, err := cpu.New(coreCfg, h, branch.New(branch.DefaultConfig()), undo.NewCleanupSpec(), noise.None{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.RunChecked(prog); err != nil && !errors.Is(err, cpu.ErrWatchdog) {
			t.Fatalf("%+v: RunChecked = %v, want success or a watchdog error", cfg, err)
		}
	})
}
