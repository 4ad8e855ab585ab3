// Package fuzz is the differential-fuzzing subsystem: a seedable random
// program generator, a delta-debugging shrinker, metamorphic property
// checkers over the out-of-order core and its undo schemes, and a
// persistent witness corpus the test suite replays as regressions.
//
// The subsystem generalizes the co-simulation loop that used to live in
// cosim_test.go and adds the *security* properties the paper depends
// on: undo-scheme invariance of architectural state, rollback
// completeness (no speculative residue), determinism, and squash
// containment (attacker-probe timing independent of the secret under a
// perfect defense). The design follows AMuLeT (arXiv 2503.00145) —
// fuzz the countermeasure model at design time — and SpecFuzz
// (arXiv 1905.10311) — make speculative leakage observable to the
// fuzzer.
package fuzz

import (
	"fmt"
	"math/rand"

	"repro/internal/isa"
	"repro/internal/mem"
)

// Weights sets the relative frequency of each generated block kind.
// Zero-weight kinds are never emitted; the defaults weight all kinds
// equally, which reproduces the historical cosim_test.go mix exactly.
type Weights struct {
	// ALU emits short chains of register arithmetic.
	ALU int
	// MemPair emits a store followed by a load at a (possibly equal)
	// offset — the store-to-load forwarding stressor.
	MemPair int
	// Branch emits a data-dependent forward branch over a few ops plus
	// a shadow load that turns transient on mis-prediction.
	Branch int
	// Loop emits a bounded counter loop (guaranteed to terminate).
	Loop int
	// Timing emits architecturally inert clflush/fence pairs.
	Timing int
	// Secret emits leak-gadget shapes over the secret-tagged region:
	// architectural and transient cache-address transmits, secret-
	// conditioned branches, divide-fault trap gates, and benign secret
	// reads. Default 0 — historical seeds keep their exact programs —
	// and raised by absint-soundness sweeps so the static/dynamic
	// cross-check sees real taint flows, not just random noise.
	Secret int
}

// DefaultWeights weights every block kind equally (no secret blocks).
func DefaultWeights() Weights {
	return Weights{ALU: 1, MemPair: 1, Branch: 1, Loop: 1, Timing: 1}
}

func (w Weights) total() int {
	return w.ALU + w.MemPair + w.Branch + w.Loop + w.Timing + w.Secret
}

// Config parameterizes the generator.
type Config struct {
	// MinBlocks/MaxBlocks bound the number of random blocks per program.
	MinBlocks, MaxBlocks int
	// Weights is the instruction-mix distribution.
	Weights Weights

	// RegionBase/RegionWords define the public data region the random
	// programs load and store (word-granular).
	RegionBase  uint64
	RegionWords int

	// SecretBase/SecretWords define the secret-tagged region the leak
	// gadgets read. Generated *random* programs never touch it — only
	// the victim phase of an attacker/victim program does — so any
	// secret-dependent attacker observation is a containment failure.
	SecretBase  uint64
	SecretWords int

	// ProbeBase/ProbeStride place the attacker-visible probe lines the
	// victim's transient load selects between (probe address =
	// ProbeBase + secret*ProbeStride).
	ProbeBase   uint64
	ProbeStride int64
}

// DefaultConfig reproduces the historical cosim_test.go generator: 3–8
// blocks, equal weights, a 64-word region at 0x100000, plus the secret
// and probe regions the leak gadget uses.
func DefaultConfig() Config {
	return Config{
		MinBlocks:   3,
		MaxBlocks:   8,
		Weights:     DefaultWeights(),
		RegionBase:  0x100000,
		RegionWords: 64,
		SecretBase:  0x200000,
		SecretWords: 8,
		ProbeBase:   0x300000,
		ProbeStride: 0x1000,
	}
}

// Validate rejects degenerate configurations.
func (c Config) Validate() error {
	if c.MinBlocks < 1 || c.MaxBlocks < c.MinBlocks {
		return fmt.Errorf("fuzz: block bounds [%d,%d] invalid", c.MinBlocks, c.MaxBlocks)
	}
	if c.Weights.total() <= 0 {
		return fmt.Errorf("fuzz: all block weights are zero")
	}
	if c.RegionWords < 1 {
		return fmt.Errorf("fuzz: empty data region")
	}
	if c.ProbeStride < int64(mem.LineSize) {
		return fmt.Errorf("fuzz: probe stride %d below line size", c.ProbeStride)
	}
	return nil
}

// Generator builds random terminating programs from a seed. It is
// deterministic: the same (config, seed) pair yields byte-identical
// programs, which is what makes witnesses reproducible.
type Generator struct {
	cfg Config
}

// New returns a generator, validating the configuration.
func New(cfg Config) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Generator{cfg: cfg}, nil
}

// MustNew is New for static configurations.
func MustNew(cfg Config) *Generator {
	g, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return g
}

// Config returns the generator configuration.
func (g *Generator) Config() Config { return g.cfg }

// Program builds the random program for seed.
func (g *Generator) Program(seed int64) *isa.Program {
	rng := rand.New(rand.NewSource(seed))
	blocks := g.cfg.MinBlocks + rng.Intn(g.cfg.MaxBlocks-g.cfg.MinBlocks+1)
	return g.ProgramWithRNG(rng, blocks)
}

// ProgramWithRNG builds a random terminating program of `blocks` blocks
// from an existing random stream: a prologue of constants, then blocks
// chosen per the configured weights (ALU chains, load/store pairs into
// the data region, data-dependent forward branches with shadow loads,
// bounded counter loops, flush+fence timing blocks), then Halt.
//
// Register discipline: r1..r8 are general scratch; r9 is the data-region
// base; r10/r11 are loop counters (never clobbered by scratch ops).
func (g *Generator) ProgramWithRNG(rng *rand.Rand, blocks int) *isa.Program {
	b := isa.NewBuilder()
	b.Const(9, int64(g.cfg.RegionBase))
	for r := isa.Reg(1); r <= 8; r++ {
		b.Const(r, int64(rng.Intn(1000)))
	}
	scratch := func() isa.Reg { return isa.Reg(1 + rng.Intn(8)) }
	randOff := func() int64 { return int64(rng.Intn(g.cfg.RegionWords)) * 8 }
	labelID := 0
	newLabel := func() string { labelID++; return fmt.Sprintf("L%d", labelID) }

	for blk := 0; blk < blocks; blk++ {
		switch g.pickBlock(rng) {
		case blockALU:
			for i := 0; i < 1+rng.Intn(5); i++ {
				rd, ra, rb := scratch(), scratch(), scratch()
				switch rng.Intn(6) {
				case 0:
					b.Add(rd, ra, rb)
				case 1:
					b.Sub(rd, ra, rb)
				case 2:
					b.Mul(rd, ra, rb)
				case 3:
					b.Xor(rd, ra, rb)
				case 4:
					b.ShlI(rd, ra, int64(rng.Intn(8)))
				case 5:
					b.AddI(rd, ra, int64(rng.Intn(64)))
				}
			}
		case blockMemPair:
			off1 := randOff()
			off2 := randOff()
			b.Store(9, off1, scratch())
			b.Load(scratch(), 9, off2)
		case blockBranch:
			skip := newLabel()
			ra, rb := scratch(), scratch()
			switch rng.Intn(4) {
			case 0:
				b.BranchLT(ra, rb, skip)
			case 1:
				b.BranchGE(ra, rb, skip)
			case 2:
				b.BranchEQ(ra, rb, skip)
			case 3:
				b.BranchNE(ra, rb, skip)
			}
			for i := 0; i < 1+rng.Intn(3); i++ {
				b.AddI(scratch(), scratch(), int64(rng.Intn(16)))
			}
			// Shadow loads: these become transient when the branch
			// mispredicts — the interesting case for undo schemes.
			b.Load(scratch(), 9, randOff())
			b.Label(skip)
		case blockLoop:
			loop := newLabel()
			iters := int64(2 + rng.Intn(6))
			b.Const(10, 0).Const(11, iters)
			b.Label(loop)
			b.Add(scratch(), scratch(), scratch())
			if rng.Intn(2) == 0 {
				b.Load(scratch(), 9, randOff())
			}
			b.AddI(10, 10, 1)
			b.BranchLT(10, 11, loop)
		case blockTiming:
			b.Flush(9, randOff())
			if rng.Intn(2) == 0 {
				b.Fence()
			}
		case blockSecret:
			// Secret blocks read the secret-tagged region and either
			// transmit it — through a cache-address, branch-direction
			// or divide-trap channel, architecturally or transiently —
			// or keep it benign data. CheckProgram replays never plant
			// secrets (the region reads zero), so these blocks stay
			// deterministic and arch-equivalent there; DynamicLeak and
			// absint are what see the leak.
			b.Const(12, int64(g.cfg.SecretBase))
			b.Const(13, 7)
			b.Const(14, int64(g.cfg.ProbeBase))
			soff := int64(rng.Intn(g.cfg.SecretWords)) * 8
			rd := scratch()
			switch rng.Intn(5) {
			case 0: // architectural cache-address transmit
				b.Load(rd, 12, soff)
				b.And(rd, rd, 13)
				b.ShlI(rd, rd, 12)
				b.Add(rd, 14, rd)
				b.Load(scratch(), rd, 0)
			case 1: // transient transmit: wrong path of an always-taken branch
				skip := newLabel()
				b.BranchEQ(0, 0, skip)
				b.Load(rd, 12, soff)
				b.And(rd, rd, 13)
				b.ShlI(rd, rd, 12)
				b.Add(rd, 14, rd)
				b.Load(scratch(), rd, 0)
				b.Label(skip)
			case 2: // secret-conditioned branch direction
				skip := newLabel()
				b.Load(rd, 12, soff)
				b.And(rd, rd, 13)
				b.BranchNE(rd, 0, skip)
				b.AddI(scratch(), scratch(), 1)
				b.Label(skip)
			case 3: // trap gate: a zero secret word faults the divide
				b.Load(rd, 12, soff)
				b.Div(scratch(), scratch(), rd)
			case 4: // benign: the secret stays data, never timing
				b.Load(rd, 12, soff)
				b.Add(rd, rd, scratch())
				b.Store(9, randOff(), rd)
			}
		}
	}
	b.Halt()
	return b.MustBuild()
}

type blockKind int

const (
	blockALU blockKind = iota
	blockMemPair
	blockBranch
	blockLoop
	blockTiming
	blockSecret
)

// pickBlock draws a block kind from the weighted distribution. With
// equal weights the draw consumes exactly one rng.Intn(total) — the
// same stream the historical generator consumed — so old seeds keep
// producing the old programs.
func (g *Generator) pickBlock(rng *rand.Rand) blockKind {
	w := g.cfg.Weights
	r := rng.Intn(w.total())
	for i, wi := range []int{w.ALU, w.MemPair, w.Branch, w.Loop, w.Timing, w.Secret} {
		if r < wi {
			return blockKind(i)
		}
		r -= wi
	}
	return blockALU // unreachable
}

// InitMemory plants seeded random data in the program's load/store
// region (the historical initRegion).
func (g *Generator) InitMemory(seed int64, m *mem.Memory) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < g.cfg.RegionWords; i++ {
		m.WriteWord(mem.Addr(g.cfg.RegionBase)+mem.Addr(i*8), rng.Uint64()%1_000_000)
	}
}

// PlantSecret writes the victim's secret bit and arms the leak gadget's
// branch condition in the secret-tagged region.
func (g *Generator) PlantSecret(m *mem.Memory, bit int) {
	m.WriteWord(mem.Addr(g.cfg.SecretBase), uint64(bit&1))
	// The gadget's slow branch condition lives one line above the
	// secret; value 1 makes the branch actually taken.
	m.WriteWord(mem.Addr(g.cfg.SecretBase)+mem.LineSize, 1)
}

// Leak-gadget register map (all above the random generator's r1..r11
// so phased programs can embed random filler later):
//
//	r15 probe stride         r19 transient target   r23 probe start tsc
//	r16 secret-region base   r20 victim start tsc   r24 probe value
//	r17 probe base           r21 victim end tsc     r25 probe end tsc
//	r18 secret bit           r22 victim cycles      r26 probe cycles
const (
	// RegVictimCycles holds the victim's end-to-end time across the
	// mis-speculated branch — the observable unXpec measures.
	RegVictimCycles = isa.Reg(22)
	// RegProbeCycles holds the attacker's reload time of the secret-1
	// probe line — the classic Flush+Reload observable.
	RegProbeCycles = isa.Reg(26)
)

// LeakGadget builds the attacker/victim phased program for the squash-
// containment property. The victim phase reads the secret bit, warms
// the secret-0 probe line, then executes a mispredicted branch whose
// wrong path transiently loads probe line secret*ProbeStride. The
// attacker phase timestamps (a) the victim's total time across the
// squash (RegVictimCycles) and (b) a reload of the secret-1 probe line
// (RegProbeCycles). Under a defense with perfect containment both are
// statistically independent of the secret; the unsafe baseline leaks
// through (b), and Undo-style rollback leaks through (a) — the paper's
// core claim, expressed as a fuzz property.
func (g *Generator) LeakGadget() *isa.Program {
	b := isa.NewBuilder()
	secretBase := int64(g.cfg.SecretBase)
	probeBase := int64(g.cfg.ProbeBase)

	// --- victim phase: setup ---
	b.Const(16, secretBase)
	b.Const(17, probeBase)
	b.Load(18, 16, 0) // r18 = secret bit
	b.Load(19, 17, 0) // warm the secret-0 probe line
	b.Const(15, int64(g.cfg.ProbeStride))
	b.Mul(19, 18, 15)            // r19 = secret * stride
	b.Add(19, 17, 19)            // r19 = probe line address for secret
	b.Load(1, 16, mem.LineSize)  // warm the condition line…
	b.Flush(16, mem.LineSize)    // …then flush it so the branch resolves slowly
	b.Fence()                    // drain everything before the window opens
	b.RdTSC(20)                  // victim start
	b.Load(1, 16, mem.LineSize)  // slow condition load (L1+L2 miss)
	b.BranchNE(1, 0, "resolved") // actually taken; predicted not-taken
	// --- wrong path: executes transiently until the squash ---
	b.Load(2, 19, 0) // secret-dependent transient load
	b.Label("resolved")
	// Fetch converges here on both paths, so this fence keeps the
	// attacker phase below from issuing inside the victim's
	// speculation window.
	b.Fence()
	b.RdTSC(21)       // victim end: includes squash + rollback stall
	b.Sub(22, 21, 20) // r22 = victim cycles (observable a)

	// --- attacker phase: reload the secret-1 probe line ---
	b.RdTSC(23)
	b.Load(24, 17, int64(g.cfg.ProbeStride)) // probe secret-1 line
	b.RdTSC(25)
	b.Sub(26, 25, 23) // r26 = probe cycles (observable b)
	b.Halt()
	return b.MustBuild()
}
