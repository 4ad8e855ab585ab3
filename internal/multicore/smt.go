package multicore

import (
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/undo"
)

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
	l1 := sys.Hierarchy(0).L1D().Config()

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
