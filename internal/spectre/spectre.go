// Package spectre implements the paper's Algorithm 1: the classic
// Spectre v1 bounds-check-bypass attack with a Flush+Reload receiver
// over a 256-entry probe array. It exists for two reasons:
//
//   - It is the attack Undo defenses were built to stop, so it
//     demonstrates the baseline threat (leaks bytes against the unsafe
//     machine) and CleanupSpec's effectiveness against *cache-footprint*
//     channels (Flush+Reload reads nothing after rollback).
//   - Contrasted with package unxpec, it isolates the paper's point:
//     CleanupSpec removes the footprint but not the *time spent
//     removing it*.
package spectre

import (
	"fmt"

	"repro/internal/branch"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/memsys"
	"repro/internal/noise"
	"repro/internal/undo"
)

// Register conventions for the generated programs.
const (
	regIndex     isa.Reg = 1
	regBoundAddr isa.Reg = 2
	regBound     isa.Reg = 3
	regABase     isa.Reg = 4
	regProbe     isa.Reg = 5
	regSec       isa.Reg = 6
	regAddr      isa.Reg = 7
	regTrash     isa.Reg = 8
	regTmp       isa.Reg = 9
	// regT1/regT2 time one probe reload.
	regT1 isa.Reg = 30
	regT2 isa.Reg = 31
)

// victimStart fixes the victim branch's PC across training and attack
// programs so predictor state transfers.
const victimStart = 8

// Layout places the victim and attacker structures.
type Layout struct {
	// BoundAddr holds the array length n used by the bounds check.
	BoundAddr mem.Addr
	Bound     uint64
	// ABase is the victim array; SecretAddr - ABase is the OOB index.
	ABase      mem.Addr
	SecretAddr mem.Addr
	// ProbeBase is the attacker's 256-entry × 64-byte probe array P.
	ProbeBase mem.Addr
	// TrainIndex is in-bounds.
	TrainIndex uint64
}

// DefaultLayout returns the standard placement.
func DefaultLayout() Layout {
	return Layout{
		BoundAddr:  0x12000,
		Bound:      16,
		ABase:      0x20000,
		SecretAddr: 0x28000,
		ProbeBase:  0x300000,
		TrainIndex: 3,
	}
}

// OOBIndex returns the index that makes A[index] read the secret byte.
func (l Layout) OOBIndex() uint64 { return uint64(l.SecretAddr - l.ABase) }

// ProbeEntry returns the address of P[64·v].
func (l Layout) ProbeEntry(v int) mem.Addr {
	return l.ProbeBase + mem.Addr(v*mem.LineSize)
}

// Attack is one Spectre v1 instance on its own simulated machine.
type Attack struct {
	layout Layout
	core   *cpu.CPU
	hier   *memsys.Hierarchy
	victim *isa.Program
	train  *isa.Program
}

// New builds the machine under the given scheme (nil = unsafe baseline,
// the machine Spectre was published against).
func New(scheme undo.Scheme, seed int64) (*Attack, error) {
	if scheme == nil {
		scheme = undo.NewUnsafe()
	}
	layout := DefaultLayout()
	backing := mem.NewMemory()
	backing.WriteWord(layout.BoundAddr, layout.Bound)
	hier, err := memsys.New(memsys.DefaultConfig(seed), backing)
	if err != nil {
		return nil, err
	}
	core, err := cpu.New(cpu.DefaultConfig(), hier, branch.New(branch.DefaultConfig()), scheme, noise.None{})
	if err != nil {
		return nil, err
	}
	a := &Attack{layout: layout, core: core, hier: hier}
	if a.victim, err = a.victimProgram(false); err != nil {
		return nil, err
	}
	if a.train, err = a.victimProgram(true); err != nil {
		return nil, err
	}
	return a, nil
}

// victimProgram emits Algorithm 1's VICTIM: if index < n then
// y = P[64 · A[index]]. Training and attack variants share the victim
// block PCs; only the prologue (index value source) differs.
func (a *Attack) victimProgram(training bool) (*isa.Program, error) {
	l := a.layout
	b := isa.NewBuilder()
	if training {
		b.Const(regIndex, int64(l.TrainIndex))
	} else {
		b.Const(regIndex, int64(l.OOBIndex()))
	}
	b.Const(regBoundAddr, int64(l.BoundAddr)).
		Const(regABase, int64(l.ABase)).
		Const(regProbe, int64(l.ProbeBase))
	for b.Here() < victimStart {
		b.Nop()
	}
	if b.Here() != victimStart {
		return nil, fmt.Errorf("spectre: prologue exceeds victim offset")
	}
	b.Load(regBound, regBoundAddr, 0).
		BranchGE(regIndex, regBound, "out").
		Add(regAddr, regABase, regIndex).
		Load(regSec, regAddr, 0). // secret byte (transient when OOB)
		ShlI(regSec, regSec, 6).  // ×64: one probe line per value
		Add(regAddr, regProbe, regSec).
		Load(regTrash, regAddr, 0). // encode into the cache
		Label("out").
		Halt()
	return b.Build()
}

// SetSecretByte plants the victim's secret.
func (a *Attack) SetSecretByte(v byte) {
	a.hier.Memory().WriteWord(a.layout.SecretAddr, uint64(v))
	if !a.hier.L1D().Probe(a.layout.SecretAddr) {
		a.hier.WarmRead(a.layout.SecretAddr)
	}
}

// flushProbe evicts all candidate probe entries and the bound.
func (a *Attack) flushProbe(candidates int) error {
	b := isa.NewBuilder()
	b.Const(regProbe, int64(a.layout.ProbeBase))
	for v := 0; v < candidates; v++ {
		b.Flush(regProbe, int64(v*mem.LineSize))
	}
	b.Const(regBoundAddr, int64(a.layout.BoundAddr)).
		Flush(regBoundAddr, 0).
		Fence().
		Halt()
	_, err := a.core.RunChecked(b.MustBuild())
	return err
}

// reloadLatency times one probe entry with rdtscp-fenced loads — the
// Reload half of Flush+Reload.
func (a *Attack) reloadLatency(v int) (uint64, error) {
	b := isa.NewBuilder()
	b.Const(regAddr, int64(a.layout.ProbeEntry(v))).
		Fence().
		RdTSC(regT1).
		Load(regTrash, regAddr, 0).
		RdTSC(regT2).
		Halt()
	if _, err := a.core.RunChecked(b.MustBuild()); err != nil {
		return 0, err
	}
	return a.core.Reg(regT2) - a.core.Reg(regT1), nil
}

// LeakByte runs one full Algorithm 1 round restricted to `candidates`
// probe values (use 256 for a full byte) and returns the recovered
// value together with whether any probe entry hit at all. A program
// that trips the core's watchdog ends the round with an error wrapping
// cpu.ErrWatchdog, never with a silent miss.
func (a *Attack) LeakByte(candidates int) (value int, hit bool, err error) {
	// POISON: train the in-bounds direction.
	for i := 0; i < 6; i++ {
		if _, err := a.core.RunChecked(a.train); err != nil {
			return 0, false, fmt.Errorf("spectre: training: %w", err)
		}
	}
	// FLUSH: evict probe array and bound.
	if err := a.flushProbe(candidates); err != nil {
		return 0, false, fmt.Errorf("spectre: flush: %w", err)
	}
	// VICTIM(i*): trigger the transient access.
	if _, err := a.core.RunChecked(a.victim); err != nil {
		return 0, false, fmt.Errorf("spectre: victim: %w", err)
	}
	// PROBE: reload each entry; a hit anywhere in the cache hierarchy
	// marks the secret value (the Flush+Reload threshold sits between
	// the L2 hit and DRAM latencies).
	cfg := a.hier.Config()
	hitMax := uint64(cfg.L1D.HitLatency + cfg.L2.HitLatency + 2)
	best, bestLat := -1, uint64(1<<62)
	for v := 0; v < candidates; v++ {
		lat, err := a.reloadLatency(v)
		if err != nil {
			return 0, false, fmt.Errorf("spectre: probe %d: %w", v, err)
		}
		if lat <= hitMax && lat < bestLat {
			best, bestLat = v, lat
		}
	}
	if best < 0 {
		return 0, false, nil
	}
	return best, true, nil
}

// LeakBytes recovers a sequence of secret bytes, returning the decoded
// values and how many bytes any probe entry hit for. It stops at the
// first round that fails, returning the bytes decoded before it.
func (a *Attack) LeakBytes(secret []byte, candidates int) (decoded []byte, hits int, err error) {
	for i, s := range secret {
		a.SetSecretByte(s)
		v, ok, err := a.LeakByte(candidates)
		if err != nil {
			return decoded, hits, fmt.Errorf("spectre: byte %d: %w", i, err)
		}
		if ok {
			hits++
		}
		decoded = append(decoded, byte(v))
	}
	return decoded, hits, nil
}

// Core exposes the simulated CPU for instrumentation.
func (a *Attack) Core() *cpu.CPU { return a.core }

// Hierarchy exposes the memory system.
func (a *Attack) Hierarchy() *memsys.Hierarchy { return a.hier }
