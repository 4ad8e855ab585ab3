package cache

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/mem"
)

// FuzzConfig drives Config.Validate, New, a short operation sequence
// and Snapshot/Restore with arbitrary cache geometries. The raw
// configuration must validate or fail with a *ConfigError, whatever its
// size. Sets and ways are then folded into [-1, 512] and [-1, 32] so no
// input asks for a huge allocation, and a configuration that validates
// must build a cache under the chosen policy, survive the operations,
// and come back from Restore with the captured lines, counters and
// replacement order. It never panics.
func FuzzConfig(f *testing.F) {
	f.Add(int64(64), int64(8), int64(0), int64(2), uint8(1), int64(1), []byte("\x01\x10\x02\x20\x00\x10\x03\x20\x04\x10"))
	f.Add(int64(1<<62), int64(4), int64(0), int64(1), uint8(0), int64(0), []byte{})
	size := func(v int64, n int) int {
		if v >= -1 && v <= int64(n) {
			return int(v)
		}
		m := int64(n) + 2
		return int((v%m+m)%m) - 1
	}
	typed := func(t *testing.T, cfg Config, err error) {
		var ce *ConfigError
		if err != nil && !errors.As(err, &ce) {
			t.Fatalf("%+v: Validate() = %v, not a *ConfigError", cfg, err)
		}
	}
	f.Fuzz(func(t *testing.T, sets, ways, partition, latency int64, policy uint8, seed int64, ops []byte) {
		raw := Config{Name: "raw", Sets: int(sets), Ways: int(ways), PartitionWays: int(partition), HitLatency: int(latency)}
		typed(t, raw, raw.Validate())
		cfg := Config{Name: "f", Sets: size(sets, 512), Ways: size(ways, 32),
			PartitionWays: size(partition, 32), HitLatency: int(latency)}
		if err := cfg.Validate(); err != nil {
			typed(t, cfg, err)
			return
		}
		switch policy % 3 {
		case 1:
			cfg.Policy = NewRandom(seed)
		case 2:
			if cfg.Ways&(cfg.Ways-1) == 0 { // tree-PLRU's precondition
				cfg.Policy = NewTreePLRU(cfg.Sets, cfg.Ways)
			}
		}
		c := New(cfg)
		if len(ops) > 128 {
			ops = ops[:128]
		}
		apply := func(ops []byte) {
			for i := 0; i+1 < len(ops); i += 2 {
				op, x := ops[i], uint64(ops[i+1])
				// Lines spread over a few sets with many tags each, so
				// fills evict.
				addr := mem.Addr(x * uint64(cfg.Sets/4+1) << mem.LineShift)
				agent := int(op>>3) & 3
				switch op % 8 {
				case 0:
					c.Lookup(addr)
				case 1, 2:
					if !c.Probe(addr) {
						c.Fill(addr, agent, op%8 == 2, uint64(i))
					}
				case 3:
					c.Invalidate(addr)
				case 4:
					c.Commit(addr)
				case 5:
					c.Flush(addr)
				case 6:
					c.MarkDirty(addr)
				case 7:
					c.DeferDowngrade(addr)
				}
			}
		}
		half := len(ops) / 2 &^ 1
		apply(ops[:half])
		snap, lines, stats := c.Snapshot(), slices.Clone(c.lines.data), c.Stats()
		apply(ops[half:])
		after := slices.Clone(c.lines.data)
		c.Restore(snap)
		if !slices.Equal(c.lines.data, lines) || c.Stats() != stats {
			t.Fatalf("%+v: Restore did not bring back the snapshot's lines or counters", cfg)
		}
		apply(ops[half:])
		if !slices.Equal(c.lines.data, after) {
			t.Fatalf("%+v: replay after Restore ended in different lines", cfg)
		}
	})
}
