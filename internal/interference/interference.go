// Package interference implements a speculative interference attack in
// the style of Behnia et al. (ASPLOS'21) — the paper's reference [2] and
// the reason unXpec exists: Invisible defenses hide transient cache
// *state*, but transient loads still occupy shared microarchitectural
// resources. Here the contended resource is the MSHR file: a burst of
// secret-dependent transient misses fills the MSHRs, so when the (older,
// still-unresolved) branch-condition load finally issues it stalls, and
// the receiver observes a secret-dependent resolution delay — with no
// cache footprint at all.
//
// Together with package unxpec this completes the paper's framing:
// Invisible broken by interference, Undo broken by rollback timing.
package interference

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

// Register conventions.
const (
	regIndex  isa.Reg = 1
	regChain  isa.Reg = 2
	regBound  isa.Reg = 4
	regSecret isa.Reg = 5
	regSec64  isa.Reg = 6
	regABase  isa.Reg = 10
	regPtr    isa.Reg = 11
	regProbe  isa.Reg = 12
	regTrash  isa.Reg = 13
	regScr    isa.Reg = 14
	regIdxC   isa.Reg = 15
	regT1     isa.Reg = 30
	regT2     isa.Reg = 31
)

const senderStart = 8

// Options configures the interference attack.
type Options struct {
	// Burst is the number of independent transient loads; it must
	// exceed the MSHR capacity for the contention to bite (default 24
	// against the Table I machine's 16 MSHRs).
	Burst int
	// Scheme is the defense under attack (nil = InvisibleLite — the
	// family this attack is aimed at).
	Scheme undo.Scheme
	Noise  noise.Model
	Seed   int64
}

// Attack is one interference-attack instance.
type Attack struct {
	opts    Options
	core    *cpu.CPU
	hier    *memsys.Hierarchy
	train   *isa.Program
	prep    *isa.Program
	measure *isa.Program

	chain  [2]mem.Addr
	aBase  mem.Addr
	secret mem.Addr
	probe  mem.Addr
	oob    uint64

	trained bool
}

// New builds the machine and the attack programs.
func New(opts Options) (*Attack, error) {
	if opts.Burst == 0 {
		opts.Burst = 24
	}
	if opts.Burst < 1 || opts.Burst > 128 {
		return nil, fmt.Errorf("interference: burst %d out of range", opts.Burst)
	}
	if opts.Scheme == nil {
		opts.Scheme = undo.NewInvisibleLite()
	}
	if opts.Noise == nil {
		opts.Noise = noise.None{}
	}
	a := &Attack{
		opts:   opts,
		chain:  [2]mem.Addr{0x10000, 0x10040},
		aBase:  0x30000,
		secret: 0x38000,
		probe:  0x200000,
	}
	a.oob = uint64(a.secret - a.aBase)

	backing := mem.NewMemory()
	backing.WriteWord(a.chain[0], uint64(a.chain[1]))
	backing.WriteWord(a.chain[1], 64) // the bound
	backing.WriteWord(a.aBase+8, 0)   // training index entry
	hier, err := memsys.New(memsys.DefaultConfig(opts.Seed), backing)
	if err != nil {
		return nil, err
	}
	core, err := cpu.New(cpu.DefaultConfig(), hier, branch.New(branch.DefaultConfig()), opts.Scheme, opts.Noise)
	if err != nil {
		return nil, err
	}
	a.core, a.hier = core, hier

	if a.train, err = a.senderProgram(false); err != nil {
		return nil, err
	}
	if a.measure, err = a.senderProgram(true); err != nil {
		return nil, err
	}
	a.prep = a.prepProgram()
	return a, nil
}

// MustNew panics on configuration errors.
func MustNew(opts Options) *Attack {
	a, err := New(opts)
	if err != nil {
		panic(err)
	}
	return a
}

// senderBlock emits the two-deep bound chain, the bounds check, and a
// burst of *independent* transient loads so many misses are in flight
// simultaneously — maximum MSHR pressure while the chain's second load
// is still waiting to issue.
func (a *Attack) senderBlock(b *isa.Builder) {
	b.Load(regBound, regChain, 0). // chain node 1 (flushed)
					Load(regBound, regBound, 0). // chain node 2 (flushed): issues late
					BranchGE(regIndex, regBound, "skip").
					Add(regPtr, regABase, regIndex).
					Load(regSecret, regPtr, 0).
					ShlI(regSec64, regSecret, 6)
	for i := 1; i <= a.opts.Burst; i++ {
		b.Const(regIdxC, int64(i)).
			Mul(regScr, regSec64, regIdxC).
			Add(regScr, regProbe, regScr).
			Load(regTrash, regScr, 0)
	}
	b.Label("skip")
}

func (a *Attack) senderProgram(measured bool) (*isa.Program, error) {
	b := isa.NewBuilder()
	if measured {
		b.Const(regIndex, int64(a.oob))
	} else {
		b.Const(regIndex, 8)
	}
	b.Const(regChain, int64(a.chain[0])).
		Const(regABase, int64(a.aBase)).
		Const(regProbe, int64(a.probe))
	if measured {
		b.Fence().RdTSC(regT1)
	}
	for b.Here() < senderStart {
		b.Nop()
	}
	if b.Here() != senderStart {
		return nil, fmt.Errorf("interference: prologue too long")
	}
	a.senderBlock(b)
	if measured {
		b.RdTSC(regT2)
	}
	b.Halt()
	return b.Build()
}

// prepProgram warms P[0], flushes the burst lines and the bound chain.
func (a *Attack) prepProgram() *isa.Program {
	b := isa.NewBuilder()
	b.Const(regProbe, int64(a.probe)).
		Load(regTrash, regProbe, 0)
	for i := 1; i <= a.opts.Burst; i++ {
		b.Const(regScr, int64(a.probe)+int64(i*mem.LineSize)).
			Flush(regScr, 0)
	}
	for _, node := range a.chain {
		b.Const(regScr, int64(node)).Flush(regScr, 0)
	}
	b.Fence().Halt()
	return b.MustBuild()
}

// SetSecretBit plants the bit and keeps the secret line warm.
func (a *Attack) SetSecretBit(bit int) {
	a.hier.Memory().WriteWord(a.secret, uint64(bit&1))
	if !a.hier.L1D().Probe(a.secret) {
		a.hier.WarmRead(a.secret)
	}
}

// MeasureOnceChecked runs one round and returns the observed latency.
// A watchdog trip surfaces as *cpu.WatchdogError instead of folding a
// truncated latency into the sample set.
func (a *Attack) MeasureOnceChecked(secret int) (uint64, error) {
	a.SetSecretBit(secret)
	rounds := 2
	if !a.trained {
		rounds = 8
		a.trained = true
	}
	for i := 0; i < rounds; i++ {
		if _, err := a.core.RunChecked(a.train); err != nil {
			return 0, err
		}
	}
	if _, err := a.core.RunChecked(a.prep); err != nil {
		return 0, err
	}
	if _, err := a.core.RunChecked(a.measure); err != nil {
		return 0, err
	}
	return a.core.Reg(regT2) - a.core.Reg(regT1), nil
}

// Core exposes the simulated CPU.
func (a *Attack) Core() *cpu.CPU { return a.core }
