package multicore

import (
	"fmt"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/memsys"
	"repro/internal/noise"
	"repro/internal/undo"
)

// SMTSystem models two hardware threads time-sharing one physical core's
// caches: a shared L1D (NoMo way-partitioned when the config says so)
// and the shared L2. Each thread gets its own pipeline and predictor —
// a simplification of real SMT fetch interleaving that preserves what
// the threat model needs: concurrent cache visibility with partitioned
// fills (paper §III-A).
type SMTSystem struct {
	backing *mem.Memory
	l1d     *cache.Cache
	l2      *cache.Cache
	threads []*cpu.CPU
	hiers   []*memsys.Hierarchy
	noSkip  bool
}

// SetFastForward toggles lockstep idle skipping, exactly as on System:
// per-thread skipping stays off because both threads share the L1D.
func (s *SMTSystem) SetFastForward(on bool) { s.noSkip = !on }

// NewSMT builds a two-thread SMT core. partitionWays > 0 reserves that
// many L1 ways per thread (NoMo); zero shares all ways — the
// configuration a Prime+Probe SMT attacker exploits.
func NewSMT(seed int64, partitionWays int, schemeFor func(int) undo.Scheme) (*SMTSystem, error) {
	if schemeFor == nil {
		schemeFor = func(int) undo.Scheme { return undo.NewCleanupSpec() }
	}
	cfg := memsys.DefaultConfig(seed)
	cfg.L1D.PartitionWays = partitionWays
	s := &SMTSystem{
		backing: mem.NewMemory(),
		l1d:     cache.New(cfg.L1D),
		l2:      cache.New(cfg.L2),
	}
	for thread := 0; thread < 2; thread++ {
		hier, err := memsys.NewSMT(cfg, s.backing, s.l1d, s.l2, thread)
		if err != nil {
			return nil, err
		}
		core, err := cpu.New(cpu.DefaultConfig(), hier, branch.New(branch.DefaultConfig()),
			schemeFor(thread), noise.None{})
		if err != nil {
			return nil, err
		}
		// Lockstep skipping only, as in New: threads share one "now".
		core.SetFastForward(false)
		s.hiers = append(s.hiers, hier)
		s.threads = append(s.threads, core)
	}
	return s, nil
}

// Thread returns thread i's pipeline.
func (s *SMTSystem) Thread(i int) *cpu.CPU { return s.threads[i] }

// Hierarchy returns thread i's memory view.
func (s *SMTSystem) Hierarchy(i int) *memsys.Hierarchy { return s.hiers[i] }

// Memory returns the shared backing store.
func (s *SMTSystem) Memory() *mem.Memory { return s.backing }

// SharedL1D returns the core's data cache.
func (s *SMTSystem) SharedL1D() *cache.Cache { return s.l1d }

// RunAll steps both threads in lockstep until both programs halt.
func (s *SMTSystem) RunAll(progs []*isa.Program, maxCycles uint64) ([]cpu.Stats, error) {
	if len(progs) != 2 {
		return nil, fmt.Errorf("multicore: SMT runs exactly two programs")
	}
	return runLockstep(s.threads, progs, maxCycles, s.noSkip)
}

// SMTPrimeProbe runs the §III-A scenario: thread 1 (attacker) primes an
// L1 set, thread 0 (victim) accesses a congruent secret-dependent line,
// the attacker re-probes and counts slow (evicted) lines. Without NoMo
// the victim's fill evicts an attacker line — a non-speculative L1
// Prime+Probe channel. With NoMo partitioning the victim cannot touch
// the attacker's ways and the probe is silent.
func SMTPrimeProbe(seed int64, partitionWays int, victimAccesses bool) (evictions int, err error) {
	sys, err := NewSMT(seed, partitionWays, func(int) undo.Scheme { return undo.NewUnsafe() })
	if err != nil {
		return 0, err
	}
	// Set 5 of the L1: clear of the attacker's probe log (set 0).
	const victimLine = mem.Addr(0x40000 + 5*mem.LineSize)
	l1 := sys.SharedL1D().Config()

	// The attacker's prime lines: congruent with the victim line. Under
	// partitioning the attacker owns `partitionWays` ways; otherwise
	// the whole set.
	primeCount := l1.Ways
	if partitionWays > 0 {
		primeCount = partitionWays
	}
	primeBase := mem.Addr(0x600000)
	primeSet := victimLine.SetIndex(l1.Sets)
	var primeLines []mem.Addr
	for i := 0; len(primeLines) < primeCount; i++ {
		a := mem.FromSetTag(l1.Sets, primeSet, primeBase.Tag(l1.Sets)+uint64(i))
		primeLines = append(primeLines, a)
	}

	// Attacker program: prime, spin a fixed delay, probe with timing,
	// logging each probe latency.
	logBase := mem.Addr(0x700000)
	ab := isa.NewBuilder()
	for _, a := range primeLines {
		ab.Const(1, int64(a)).Load(2, 1, 0)
	}
	ab.Const(25, 3)
	for i := 0; i < 600; i++ { // delay while the victim runs
		ab.Mul(25, 25, 25).AddI(25, 25, 1)
	}
	ab.Const(3, int64(logBase))
	for _, a := range primeLines {
		ab.Const(1, int64(a)).
			Fence().
			RdTSC(30).
			Load(2, 1, 0).
			RdTSC(31).
			Sub(4, 31, 30).
			Store(3, 0, 4).
			AddI(3, 3, 8)
	}
	ab.Halt()
	attacker := ab.MustBuild()

	// Victim program: a spacer, then (optionally) the secret-dependent
	// access to its congruent line.
	vb := isa.NewBuilder()
	vb.Const(25, 5)
	for i := 0; i < 200; i++ { // let the attacker finish priming
		vb.Mul(25, 25, 25).AddI(25, 25, 1)
	}
	if victimAccesses {
		vb.Const(1, int64(victimLine)).Load(2, 1, 0)
	}
	vb.Halt()
	victim := vb.MustBuild()

	if _, err := sys.RunAll([]*isa.Program{victim, attacker}, 0); err != nil {
		return 0, err
	}
	l1Hit := uint64(l1.HitLatency)
	for i := range primeLines {
		lat := sys.Memory().ReadWord(logBase + mem.Addr(i*8))
		if lat > l1Hit+1 {
			evictions++
		}
	}
	return evictions, nil
}
