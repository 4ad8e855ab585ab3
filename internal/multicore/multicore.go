// Package multicore runs several simulated cores in cycle lockstep over
// a shared L2 and backing memory. It makes the cross-core half of the
// paper's threat model executable: a prober on another core attacking
// the victim's speculation window through the shared cache, which
// CleanupSpec counters with dummy misses and delayed coherence
// downgrades (§II-B) — and which the unsafe baseline does not. The
// same System models two SMT hardware threads sharing one L1D (§III-A,
// NewSMT). Each core reaches the others' lines only through its own
// hierarchy's memsys.Read, which applies the in-window rules.
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

// Config sets up the shared machine.
type Config struct {
	// Cores is the number of cores (≥ 1).
	Cores int
	// Mem is the per-core hierarchy template; its L2 section describes
	// the single shared L2.
	Mem memsys.Config
	// CPU is the per-core pipeline configuration.
	CPU cpu.Config
	// SchemeFor returns the undo scheme for core i (schemes are
	// stateful; one instance per core). Nil defaults every core to
	// CleanupSpec.
	SchemeFor func(core int) undo.Scheme
	// Seed drives replacement and noise.
	Seed int64
}

// DefaultConfig returns a two-core Table I machine under CleanupSpec.
func DefaultConfig(seed int64) Config {
	return Config{
		Cores: 2,
		Mem:   memsys.DefaultConfig(seed),
		CPU:   cpu.DefaultConfig(),
		Seed:  seed,
	}
}

// System is the lockstep multi-agent machine: cores with private L1s
// (New) or two SMT threads sharing one L1D (NewSMT), over one L2.
type System struct {
	backing *mem.Memory
	l2      *cache.Cache
	cores   []*cpu.CPU
	hiers   []*memsys.Hierarchy
	noSkip  bool
}

// SetFastForward toggles lockstep idle skipping (on by default): when
// every non-halted core reports no progress, RunAll advances all of
// them together by the minimum next-event distance. Per-core skipping
// stays off regardless — cores must share one notion of "now" or a
// skipping core could jump past a sibling's interaction with a shared
// cache.
func (s *System) SetFastForward(on bool) { s.noSkip = !on }

// New builds the system: one shared L2 + backing memory, per-core
// private L1s, predictors and schemes.
func New(cfg Config) (*System, error) {
	return build(cfg, false)
}

// NewSMT builds a two-thread SMT core: both threads share one L1D
// (NoMo way-partitioned when partitionWays > 0, reserving that many
// ways per thread) and the L2. Each thread gets its own pipeline and
// predictor — a simplification of real SMT fetch interleaving that
// preserves what the threat model needs: concurrent cache visibility
// with partitioned fills (paper §III-A). Zero partitionWays shares all
// ways, the configuration a Prime+Probe SMT attacker exploits.
func NewSMT(seed int64, partitionWays int, schemeFor func(int) undo.Scheme) (*System, error) {
	cfg := DefaultConfig(seed)
	cfg.Mem.L1D.PartitionWays = partitionWays
	cfg.SchemeFor = schemeFor
	return build(cfg, true)
}

// build assembles the machine. Without sharedL1D every core gets a
// private L1D and the cores are each other's coherence peers; with it
// all cores share one L1D and have no peer L1 to back-invalidate.
func build(cfg Config, sharedL1D bool) (*System, error) {
	if cfg.Cores < 1 {
		return nil, fmt.Errorf("multicore: need at least one core")
	}
	if cfg.SchemeFor == nil {
		cfg.SchemeFor = func(int) undo.Scheme { return undo.NewCleanupSpec() }
	}
	if err := cfg.Mem.Validate(); err != nil {
		return nil, err
	}
	s := &System{
		backing: mem.NewMemory(),
		l2:      cache.New(cfg.Mem.L2),
	}
	var l1d *cache.Cache // nil: NewShared builds a private one per core
	if sharedL1D {
		l1d = cache.New(cfg.Mem.L1D)
	}
	for i := 0; i < cfg.Cores; i++ {
		hier, err := memsys.NewShared(cfg.Mem, s.backing, l1d, s.l2, i)
		if err != nil {
			return nil, err
		}
		core, err := cpu.New(cfg.CPU, hier, branch.New(branch.DefaultConfig()),
			cfg.SchemeFor(i), noise.None{})
		if err != nil {
			return nil, err
		}
		// Lockstep systems skip collectively in RunAll, never per core.
		core.SetFastForward(false)
		s.hiers = append(s.hiers, hier)
		s.cores = append(s.cores, core)
	}
	if sharedL1D {
		return s, nil
	}
	// Wire coherence: every hierarchy can back-invalidate every sibling
	// L1 (clflush and inclusive-L2 semantics are machine-global).
	for i, hi := range s.hiers {
		for j, hj := range s.hiers {
			if i != j {
				hi.AttachPeerL1(hj.L1D())
			}
		}
	}
	return s, nil
}

// MustNew is New for static configurations.
func MustNew(cfg Config) *System {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Core returns core i's CPU.
func (s *System) Core(i int) *cpu.CPU { return s.cores[i] }

// Hierarchy returns core i's memory view.
func (s *System) Hierarchy(i int) *memsys.Hierarchy { return s.hiers[i] }

// Memory returns the shared backing store.
func (s *System) Memory() *mem.Memory { return s.backing }

// SharedL2 returns the shared cache.
func (s *System) SharedL2() *cache.Cache { return s.l2 }

// RunAll assigns one program per core and steps all cores in lockstep
// until every program halts. Cores whose program finishes early idle
// while the rest continue — their caches stay live, as on real
// silicon. It returns per-core stats, or an error wrapping
// cpu.ErrWatchdog once the tick count passes maxCycles (0 means 10M)
// or a core trips its own watchdog.
func (s *System) RunAll(progs []*isa.Program, maxCycles uint64) ([]cpu.Stats, error) {
	if len(progs) != len(s.cores) {
		return nil, fmt.Errorf("multicore: %d programs for %d cores", len(progs), len(s.cores))
	}
	cores := s.cores
	for i, p := range progs {
		cores[i].BeginProgram(p)
	}
	if maxCycles == 0 {
		maxCycles = 10_000_000
	}
	for tick := uint64(0); ; {
		if tick > maxCycles {
			return nil, fmt.Errorf("multicore: exceeded %d lockstep cycles: %w", maxCycles, cpu.ErrWatchdog)
		}
		allDone := true
		for _, c := range cores {
			if !c.Step() {
				allDone = false
			}
		}
		if allDone {
			break
		}
		tick++
		// Min-across-cores fast-forward: when no core changed state this
		// tick, every core is idle-waiting on a time-based event (fill
		// completion, stall expiry, its watchdog deadline). A quiescent
		// core cannot touch the shared cache, so jumping all of them by
		// the smallest next-event distance preserves cycle accuracy.
		if s.noSkip {
			continue
		}
		skip := lockstepSkip(cores, tick, maxCycles)
		if skip > 0 {
			for _, c := range cores {
				c.Advance(skip)
			}
			tick += skip
		}
	}
	out := make([]cpu.Stats, len(cores))
	for i, c := range cores {
		out[i] = c.RunStats()
	}
	return out, watchdogVerdict(out)
}

// lockstepSkip returns how many cycles a lockstep system may jump after
// a tick in which no core made progress: the minimum NextEventIn across
// non-halted cores, clamped so tick never overshoots the lockstep
// watchdog bound. It returns 0 when any live core progressed (or its
// wakeup is unknown), or when every core has halted.
func lockstepSkip(cores []*cpu.CPU, tick, maxCycles uint64) uint64 {
	skip := uint64(0)
	for _, c := range cores {
		if c.Halted() {
			continue
		}
		if c.MadeProgress() {
			return 0
		}
		d := c.NextEventIn()
		if d == 0 {
			return 0
		}
		if skip == 0 || d < skip {
			skip = d
		}
	}
	if skip > 0 && tick+skip > maxCycles+1 {
		if tick > maxCycles+1 {
			return 0
		}
		skip = maxCycles + 1 - tick
	}
	return skip
}

// watchdogVerdict surfaces a core that tripped its own MaxCycles as the
// typed watchdog error, so lockstep experiments can't average a hung
// core's cycles.
func watchdogVerdict(out []cpu.Stats) error {
	for i, st := range out {
		if st.TimedOut {
			return fmt.Errorf("multicore: core %d tripped its watchdog: %w", i, cpu.ErrWatchdog)
		}
	}
	return nil
}
