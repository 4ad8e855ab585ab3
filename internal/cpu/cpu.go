// Package cpu implements the cycle-stepped out-of-order core the attack
// runs on: in-order fetch along the predicted path, a reorder buffer,
// out-of-order issue with operand forwarding, genuine wrong-path
// execution of transient loads, squash on branch mis-speculation, and
// the hand-off to the configured undo.Scheme for rollback — the paper's
// Figure 1 timeline (T1 speculation start … T6 cleanup done).
//
// The model is deliberately at the granularity the unXpec channel needs:
// branch-resolution time is set by the dependence chain feeding the
// branch condition; transient loads mutate the cache hierarchy the
// moment they issue; squash stalls the core for however long the scheme
// says rollback takes. Fences and RDTSC have their serializing x86
// semantics so the attack's measurement window is exact.
//
// The pipeline is event-driven, so a simulated cycle costs work in
// proportion to what happens in it, not to ROB occupancy. The ROB is a
// ring of entry records with stable slot indices. Fetch decodes each
// instruction once, renames its sources to their youngest in-flight
// producers, and links it into those producers' dependents lists; a
// producer's completion wakes its dependents into a ready set that
// issue selects from in program order. Per-slot bitmaps keep the
// unissued and ready entries, incomplete fences, stores and flushes,
// loads, pending speculative loads and shadow casters (unresolved
// branches, divides not yet proven non-faulting) in program order, and
// a min-heap of completion times drives both wakeup and the fast-
// forward target (sched.go). A scanning reference core, kept in the
// package's tests, pins the event-driven one to it event for event.
package cpu

import (
	"fmt"
	"math"

	"repro/internal/branch"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/memsys"
	"repro/internal/noise"
	"repro/internal/undo"
)

// Config parameterizes the core. DefaultConfig matches Table I.
type Config struct {
	ROBSize     int
	FetchWidth  int
	IssueWidth  int
	IssueWindow int
	RetireWidth int
	LoadPorts   int

	ALULatency    int
	MulLatency    int
	BranchLatency int // resolve latency after operands ready
	SquashPenalty int // frontend redirect cost after a squash

	// FetchTiming models L1I latencies when true. Attack kernels keep
	// their code hot, so this mostly affects first iterations.
	FetchTiming bool

	// MaxCycles is the watchdog bound per Run.
	MaxCycles uint64

	// ClockGHz is used only for converting cycles to wall time in
	// reports (Table I: 2 GHz).
	ClockGHz float64
}

// DefaultConfig returns the paper's core: 192-entry ROB, 2 GHz.
func DefaultConfig() Config {
	return Config{
		ROBSize:       192,
		FetchWidth:    4,
		IssueWidth:    4,
		IssueWindow:   64,
		RetireWidth:   4,
		LoadPorts:     2,
		ALULatency:    1,
		MulLatency:    3,
		BranchLatency: 1,
		SquashPenalty: 8,
		FetchTiming:   true,
		MaxCycles:     50_000_000,
		ClockGHz:      2.0,
	}
}

// Validate checks the configuration and names the first bad field.
// Sizes must be positive; latencies must not be negative, since they
// are added to the cycle count unsigned.
func (c Config) Validate() error {
	type field struct {
		name string
		v    int
	}
	for _, f := range []field{
		{"ROBSize", c.ROBSize}, {"FetchWidth", c.FetchWidth}, {"IssueWidth", c.IssueWidth},
		{"IssueWindow", c.IssueWindow}, {"RetireWidth", c.RetireWidth}, {"LoadPorts", c.LoadPorts},
	} {
		if f.v <= 0 {
			return fmt.Errorf("cpu: %s %d must be positive", f.name, f.v)
		}
	}
	for _, f := range []field{
		{"ALULatency", c.ALULatency}, {"MulLatency", c.MulLatency},
		{"BranchLatency", c.BranchLatency}, {"SquashPenalty", c.SquashPenalty},
	} {
		if f.v < 0 {
			return fmt.Errorf("cpu: %s %d is negative", f.name, f.v)
		}
	}
	if c.MaxCycles == 0 {
		return fmt.Errorf("cpu: MaxCycles 0 disables the watchdog")
	}
	if !(c.ClockGHz > 0) || math.IsInf(c.ClockGHz, 1) {
		return fmt.Errorf("cpu: ClockGHz %v must be positive and finite", c.ClockGHz)
	}
	return nil
}

// Stats summarizes one Run.
type Stats struct {
	Cycles       uint64
	Retired      uint64
	Fetched      uint64
	Squashes     uint64
	SquashedInst uint64
	CleanupStall uint64
	NoiseStall   uint64
	TimedOut     bool

	// SkippedCycles counts idle cycles the fast-forward path jumped
	// over instead of stepping (cumulative, like Squashes);
	// FastForwards counts the jumps. Cycles already includes the
	// skipped cycles — skipping changes how time is simulated, never
	// how much.
	SkippedCycles uint64
	FastForwards  uint64

	// LastBranchResolution is the T1–T2 interval of the most recent
	// mispredicted branch: cycles from its fetch (speculation start)
	// to its resolution. Figures 2 and 13 read this.
	LastBranchResolution uint64
	// LastCleanupStall is the rollback stall of the most recent squash
	// (the secret-dependent T5 the attack measures indirectly).
	LastCleanupStall uint64

	Branch branch.Stats
	Undo   undo.Stats
	Hier   memsys.Stats
}

// IPC returns retired instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Retired) / float64(s.Cycles)
}

// entry is one ROB entry. The pipeline reads and writes entries in
// place in CPU.rob; State capture (state.go) copies them by value,
// which is sound because an entry holds no pointers. The event-side
// bookkeeping derived from an entry lives apart from it, in CPU.sch.
type entry struct {
	seq       uint64
	idx       int // instruction index (simulated PC)
	inst      isa.Inst
	fetchedAt uint64
	flags     entryFlags
	doneAt    uint64
	val       uint64

	// srcA and srcB are captured at issue for branch resolution and
	// stores.
	srcA, srcB uint64

	addr          mem.Addr
	specEpoch     uint64
	commitPenalty int
	access        memsys.AccessResult
}

// entryFlags packs the per-entry booleans of a ROB entry into one word,
// so a flag test in the stage scans is a single load.
type entryFlags uint16

const (
	fIssued entryFlags = 1 << iota
	fDone
	fPredTaken
	fResolved
	fAddrResolved
	fSpecAtIssue
	fCommittedSpec
	fShadowed // invisible-scheme load: issued without install
	// fFaulting marks a divide whose divisor was zero at issue; the trap
	// fires when it reaches the head of the ROB.
	fFaulting
)

// is reports whether flag f is set on the entry.
func (e *entry) is(f entryFlags) bool { return e.flags&f != 0 }

// set sets flag f on the entry.
func (e *entry) set(f entryFlags) { e.flags |= f }

// CPU is one simulated core bound to a hierarchy, predictor, scheme and
// noise model. A CPU is reusable across Runs; microarchitectural state
// (caches, predictor training) persists between runs, which is exactly
// what the attack's preparation stage relies on.
type CPU struct {
	cfg    Config
	hier   *memsys.Hierarchy
	pred   branch.Direction
	scheme undo.Scheme
	noise  noise.Model

	regs [isa.NumRegs]uint64

	// Run state. The ROB is the window of robLen slots starting at
	// robHead in the ring rob, whose length is a power of two of at
	// least ROBSize; window position i lives in slot (robHead+i)&mask.
	prog          *isa.Program
	rob           []entry
	mask          int
	robHead       int
	robLen        int
	nextSeq       uint64
	cycle         uint64
	fetchPC       int
	fetchStopped  bool
	fetchReady    uint64
	stallUntil    uint64
	retireBlocked uint64
	halted        bool

	// Divide-fault state: after a faulting div squashes its transient
	// window, the core drains the rollback stall and halts at
	// trapHaltAt (the fault is the end of the program; there is no
	// handler to model).
	trapPending bool
	trapHaltAt  uint64

	tracer Tracer
	flight *FlightRecorder
	met    coreMetrics
	stats  Stats

	// Per-run bookkeeping for Step-based execution.
	runStartCycle   uint64
	runStartRetired uint64

	// Fast-forward state. ff enables idle-cycle skipping inside Step;
	// quiet records that the noise model is silent (position-
	// independent), which is what makes skipping bit-identical.
	// progressed is set by any pipeline stage that changed state in the
	// current Step.
	ff         bool
	quiet      bool
	progressed bool

	transientsBuf []undo.TransientLoad

	// Event-side state, derived from the window and kept up to date by
	// fetch, issue, complete, squash and retire (sched.go). RestoreState
	// rebuilds it in one pass.
	sch       []slotSched
	rename    [isa.NumRegs]slotRef
	sets      []uint64 // backing words of the per-slot bitmaps below
	unissued  bitmap
	ready     bitmap // unissued entries whose producers have all completed
	fences    bitmap // fences not yet done
	stores    bitmap // stores and flushes
	loads     bitmap
	specLoads bitmap // issued speculative loads not yet committed
	casters   bitmap // unresolved branches; divides not yet proven non-faulting
	nDone     int    // leading window entries known to be complete
	nFences   int    // members of fences
	nUnissued int    // members of unissued
	events    []wakeEvent
	due       []int32 // branches whose execution has finished, unresolved
}

// New builds a core. A nil noise model means noise.None.
func New(cfg Config, hier *memsys.Hierarchy, pred branch.Direction, scheme undo.Scheme, nz noise.Model) (*CPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if hier == nil || pred == nil || scheme == nil {
		return nil, fmt.Errorf("cpu: hierarchy, predictor and scheme are required")
	}
	if nz == nil {
		nz = noise.None{}
	}
	// Every per-core structure is sized here, from ROBSize; slots are
	// reused in place, so the steady-state run loop performs zero heap
	// allocations.
	c := &CPU{cfg: cfg, hier: hier, pred: pred, scheme: scheme, noise: nz}
	c.allocSched()
	// Idle-cycle skipping is exact only when the noise model is
	// consulted a position-independent number of times, i.e. never
	// injects anything. Models advertise that via the Silent marker.
	if s, ok := nz.(interface{ Silent() bool }); ok && s.Silent() {
		c.quiet = true
		c.ff = true
	}
	return c, nil
}

// SetFastForward forces idle-cycle skipping on or off. The default is
// on iff the bound noise model is silent; tests comparing against a
// cycle-by-cycle reference core turn it off, and lockstep multi-core
// systems turn it off per core in favour of min-across-cores skipping.
func (c *CPU) SetFastForward(on bool) { c.ff = on }

// FastForward reports whether idle-cycle skipping is enabled.
func (c *CPU) FastForward() bool { return c.ff }

// MustNew is New for static construction sites.
func MustNew(cfg Config, hier *memsys.Hierarchy, pred branch.Direction, scheme undo.Scheme, nz noise.Model) *CPU {
	c, err := New(cfg, hier, pred, scheme, nz)
	if err != nil {
		panic(err)
	}
	return c
}

// Reg returns the architectural value of r after the last Run.
func (c *CPU) Reg(r isa.Reg) uint64 {
	if r == isa.Zero {
		return 0
	}
	return c.regs[r]
}

// SetReg presets an architectural register before a Run.
func (c *CPU) SetReg(r isa.Reg, v uint64) {
	if r != isa.Zero {
		c.regs[r] = v
	}
}

// Hierarchy returns the bound memory hierarchy.
func (c *CPU) Hierarchy() *memsys.Hierarchy { return c.hier }

// Predictor returns the bound branch predictor.
func (c *CPU) Predictor() branch.Direction { return c.pred }

// Scheme returns the bound undo scheme.
func (c *CPU) Scheme() undo.Scheme { return c.scheme }

// Cycle returns the current cycle count (monotonic across Runs).
func (c *CPU) Cycle() uint64 { return c.cycle }

// BeginProgram resets run state so Step can execute prog cycle by
// cycle. Architectural registers, caches and predictor training persist
// from earlier runs, exactly as for Run.
func (c *CPU) BeginProgram(prog *isa.Program) {
	c.prog = prog
	c.robHead = 0
	c.robLen = 0
	c.resetSched()
	c.fetchPC = 0
	c.fetchStopped = false
	c.fetchReady = c.cycle
	c.halted = false
	c.trapPending = false
	c.trapHaltAt = 0
	// TimedOut describes one run, not the core's lifetime: clear it so
	// a healthy run after a watchdog trip doesn't inherit the flag.
	c.stats.TimedOut = false
	c.runStartCycle = c.cycle
	c.runStartRetired = c.stats.Retired
}

// Step advances the core by one cycle and reports whether the current
// program has halted (or tripped the watchdog). Lockstep multi-core
// systems interleave Step calls across cores sharing a cache level.
func (c *CPU) Step() (done bool) {
	if c.halted {
		return true
	}
	if c.cycle-c.runStartCycle > c.cfg.MaxCycles {
		c.stats.TimedOut = true
		c.halted = true
		c.met.watchdog.Inc()
		return true
	}
	c.progressed = false
	c.stepNoise()
	c.retire()
	if c.halted {
		return true
	}
	c.complete()
	c.issue()
	c.fetch()
	// Explicit nil check: the argument conversion would otherwise be
	// evaluated every cycle even with telemetry detached.
	if c.met.robGauge != nil {
		c.met.robGauge.Set(float64(c.robLen))
	}
	if c.ff && !c.progressed {
		// Nothing changed this cycle, and every condition any stage
		// waits on is a pure function of time (doneAt, fetchReady,
		// stallUntil, retireBlocked, the watchdog deadline): jump to
		// the earliest of those instants. Ticking the MSHR at W-1
		// retires exactly the fills a cycle-by-cycle core would have
		// retired before cycle W begins, so MSHR occupancy — and with
		// it every stall penalty — stays bit-identical.
		w := c.nextWakeup()
		if d := w - c.cycle; d > 1 {
			c.stats.SkippedCycles += d - 1
			c.stats.FastForwards++
			c.met.skippedCycles.Add(d - 1)
			c.met.fastForwards.Inc()
		}
		c.met.cycles.Add(w - c.cycle)
		c.hier.TickMSHR(w - 1)
		c.cycle = w
	} else {
		c.met.cycles.Inc()
		c.hier.TickMSHR(c.cycle)
		c.cycle++
	}
	return c.halted
}

// nextWakeup computes the earliest future cycle at which any pipeline
// stage could make progress, assuming nothing progressed in the current
// cycle. Candidates: completion times of issued-but-unfinished work
// (loads, ALU ops, branches — fences and dependents wake via those),
// the frontend's fetchReady, stall expiry, retire unblocking, the next
// MSHR fill, all clamped to the watchdog deadline.
func (c *CPU) nextWakeup() uint64 {
	// Inside Step the stages for the current cycle already ran, so only
	// strictly future instants count.
	return c.nextWakeupFrom(c.cycle + 1)
}

// nextWakeupFrom is nextWakeup with an explicit lower bound: the
// earliest candidate ≥ from. NextEventIn passes from == c.cycle because
// it is consulted after Step has advanced the cycle counter — an event
// tagged with exactly the current cycle (fetchReady, stall expiry) means
// the core can act on the very next Step and no cycles are skippable.
func (c *CPU) nextWakeupFrom(from uint64) uint64 {
	// First cycle at which the watchdog check trips.
	w := c.runStartCycle + c.cfg.MaxCycles + 1
	lower := func(t uint64) {
		if t >= from && t < w {
			w = t
		}
	}
	// The heap holds every issued entry whose doneAt is still ahead.
	if len(c.events) > 0 {
		lower(c.events[0].at)
	}
	if !c.fetchStopped {
		lower(c.fetchReady)
	}
	if c.trapPending {
		lower(c.trapHaltAt)
	}
	lower(c.stallUntil)
	lower(c.retireBlocked)
	if t, ok := c.hier.NextWakeup(from - 1); ok {
		lower(t)
	}
	if w < from {
		// Defensive: never move backwards (the watchdog check at the
		// top of Step makes this unreachable).
		w = from
	}
	return w
}

// MadeProgress reports whether the most recent Step changed any
// pipeline state. Halted cores and cores with non-silent noise (whose
// next state change cannot be predicted) report conservatively.
func (c *CPU) MadeProgress() bool {
	if c.halted {
		return false
	}
	return c.progressed || !c.quiet
}

// NextEventIn returns how many cycles from now the core's next possible
// state change lies, or 0 when the core could progress immediately (or
// its wakeup cannot be predicted). Lockstep multi-core drivers take the
// minimum across cores and Advance them together.
func (c *CPU) NextEventIn() uint64 {
	if c.halted || !c.quiet {
		return 0
	}
	w := c.nextWakeupFrom(c.cycle)
	if w <= c.cycle {
		return 0
	}
	return w - c.cycle
}

// Advance jumps the core n idle cycles forward without stepping any
// pipeline stage, ticking the MSHR so fill completions land exactly
// where a cycle-by-cycle core would have placed them. Callers must have
// established (via MadeProgress/NextEventIn) that the core is quiescent
// for all n cycles.
func (c *CPU) Advance(n uint64) {
	if n == 0 || c.halted {
		return
	}
	c.stats.SkippedCycles += n
	c.stats.FastForwards++
	c.met.skippedCycles.Add(n)
	c.met.fastForwards.Inc()
	c.met.cycles.Add(n)
	c.hier.TickMSHR(c.cycle + n - 1)
	c.cycle += n
}

// Halted reports whether the current program has finished.
func (c *CPU) Halted() bool { return c.halted }

// RunStats summarizes the current (or just-finished) program run.
func (c *CPU) RunStats() Stats {
	out := c.stats
	out.Cycles = c.cycle - c.runStartCycle
	out.Retired = c.stats.Retired - c.runStartRetired
	out.Branch = c.pred.Stats()
	out.Undo = c.scheme.Stats()
	out.Hier = c.hier.Stats()
	return out
}

// Run executes prog to Halt (or the watchdog) and returns run stats.
// Architectural registers persist across runs; caches and predictor
// state likewise.
func (c *CPU) Run(prog *isa.Program) Stats {
	c.BeginProgram(prog)
	for !c.Step() {
	}
	return c.RunStats()
}

// Snapshot returns the cumulative statistics without running anything;
// LastBranchResolution/LastCleanupStall refer to the most recent squash.
func (c *CPU) Snapshot() Stats {
	out := c.stats
	out.Branch = c.pred.Stats()
	out.Undo = c.scheme.Stats()
	out.Hier = c.hier.Stats()
	return out
}

// stepNoise injects system-interference stalls.
func (c *CPU) stepNoise() {
	if d := c.noise.InterferenceStall(); d > 0 {
		end := c.cycle + uint64(d)
		if end > c.stallUntil {
			c.stats.NoiseStall += end - max64(c.stallUntil, c.cycle)
			c.stallUntil = end
		}
	}
}

// retire commits completed head instructions in order.
func (c *CPU) retire() {
	if c.trapPending {
		// The faulting divide already squashed everything; the core is
		// draining the rollback stall and halts once it ends.
		if c.cycle >= c.trapHaltAt {
			c.halted = true
			c.progressed = true
		}
		return
	}
	if c.cycle < c.retireBlocked {
		return
	}
	for n := 0; n < c.cfg.RetireWidth && c.robLen > 0; n++ {
		p := c.robHead
		e := &c.rob[p]
		if !e.is(fDone) || e.doneAt > c.cycle {
			return
		}
		op := e.inst.Op
		if op.IsBranch() && !e.is(fResolved) {
			return
		}
		if op == isa.OpDiv && e.is(fFaulting) {
			c.trap()
			return
		}
		c.progressed = true
		// Apply architectural effects.
		switch op {
		case isa.OpStore:
			c.hier.Write(e.addr, e.srcB, c.cycle)
		case isa.OpFlush:
			c.hier.Flush(e.addr)
		case isa.OpHalt:
			c.emit(KindRetire, p, 0)
			c.halted = true
			c.popROB()
			c.stats.Retired++
			c.met.retired.Inc()
			return
		default:
			if rd := c.sch[p].dst; rd != isa.Zero {
				c.regs[rd] = e.val
			}
		}
		c.emit(KindRetire, p, 0)
		if e.commitPenalty > 0 {
			c.retireBlocked = c.cycle + uint64(e.commitPenalty)
			c.popROB()
			c.stats.Retired++
			c.met.retired.Inc()
			return
		}
		c.popROB()
		c.stats.Retired++
		c.met.retired.Inc()
	}
}

// complete delivers the completions whose time has come, finishes
// fences whose older instructions are all done, and resolves the
// branches whose execution finished (possibly squashing).
func (c *CPU) complete() {
	for len(c.events) > 0 && c.events[0].at <= c.cycle {
		c.wake(c.popEvent())
	}
	// Fences complete when everything older is done. Only the oldest
	// incomplete fence can qualify; completing it may free the next.
	for c.nFences > 0 {
		i := c.nextPos(c.fences, 0)
		if !c.allOlderDone(i) {
			break
		}
		p := c.slot(i)
		e := &c.rob[p]
		e.set(fDone)
		e.doneAt = c.cycle
		c.fences.clear(p)
		c.nFences--
		c.progressed = true
	}
	if len(c.due) == 0 {
		return
	}
	// Resolve the oldest first: an older mispredict supersedes younger
	// ones.
	c.sortDue()
	for _, q := range c.due {
		p := int(q)
		e := &c.rob[p]
		e.set(fDone | fResolved)
		c.casters.clear(p)
		c.progressed = true
		actual := branchTaken(e.inst.Op, e.srcA, e.srcB)
		mispred := actual != e.is(fPredTaken)
		c.emit(KindResolve, p, boolToDetail(mispred))
		c.pred.Update(e.idx, actual, e.inst.Target, mispred)
		if mispred {
			// Everything younger, due branches included, is gone.
			c.squash(c.pos(p), actual)
			break
		}
		c.commitClearedLoads()
	}
	c.due = c.due[:0]
}

// allOlderDone reports whether every ROB entry older than window
// position i is complete (done, with doneAt reached). It advances the
// completion frontier nDone, which only moves forward between squashes:
// an entry that is complete stays complete.
func (c *CPU) allOlderDone(i int) bool {
	for c.nDone < i {
		e := &c.rob[c.slot(c.nDone)]
		if !e.is(fDone) || e.doneAt > c.cycle {
			return false
		}
		c.nDone++
	}
	return true
}

// commitClearedLoads clears speculative marks for issued loads no longer
// shadowed by any unresolved branch (or a divide not yet proven
// non-faulting), and performs deferred installs for invisible schemes.
// The candidates are the pending speculative loads older than the oldest
// shadow caster, visited in program order.
func (c *CPU) commitClearedLoads() {
	shadow := c.nextPos(c.casters, 0)
	for i := c.nextPos(c.specLoads, 0); i < shadow; i = c.nextPos(c.specLoads, i+1) {
		p := c.slot(i)
		e := &c.rob[p]
		e.set(fCommittedSpec)
		c.specLoads.clear(p)
		c.progressed = true
		if e.is(fShadowed) {
			// Invisible scheme: install now that the load is safe.
			c.hier.Read(e.addr, false, 0, c.cycle)
			e.commitPenalty = c.scheme.CommitLoadPenalty()
		} else {
			c.hier.CommitLine(e.addr)
		}
	}
}

// transientLoads collects the footprint of the issued, visible loads at
// window positions after i — the wrong path a squash discards — into the
// reused transients buffer, and counts those still in flight. No scheme
// retains the list past OnSquash (the slice contents are copied into
// whatever bookkeeping the scheme keeps).
func (c *CPU) transientLoads(i int) (transients []undo.TransientLoad, inflight int) {
	transients = c.transientsBuf[:0]
	for j := c.nextPos(c.loads, i+1); j < c.robLen; j = c.nextPos(c.loads, j+1) {
		e := &c.rob[c.slot(j)]
		if !e.is(fIssued) || e.is(fShadowed) {
			continue
		}
		if !e.is(fDone) || e.doneAt > c.cycle {
			inflight++
		}
		if e.access.InstalledL1 || e.access.InstalledL2 {
			transients = append(transients, undo.TransientLoad{
				LineAddr:    e.addr.Line(),
				InstalledL1: e.access.InstalledL1,
				InstalledL2: e.access.InstalledL2,
				HasVictim:   e.access.HasL1Victim && !e.access.L1VictimSpec,
				VictimAddr:  e.access.L1VictimAddr,
			})
		}
	}
	c.transientsBuf = transients
	return transients, inflight
}

// squash handles a mispredicted branch at window position i: discard the
// younger entries, hand the transient footprint to the undo scheme, and
// stall/redirect per the paper's T3–T6.
func (c *CPU) squash(i int, actualTaken bool) {
	bp := c.slot(i)
	squashed := uint64(c.robLen - i - 1)
	c.stats.Squashes++
	c.stats.LastBranchResolution = c.cycle - c.rob[bp].fetchedAt
	c.met.squashes.Inc()
	c.met.resolution.ObserveInt(c.stats.LastBranchResolution)
	c.met.robOcc.Observe(float64(c.robLen))
	c.emit(KindSquash, bp, int64(squashed))
	c.stats.SquashedInst += squashed
	c.met.squashedInst.Add(squashed)

	transients, inflightCleaned := c.transientLoads(i)

	// T4, waiting for older in-flight correct-path loads to drain, costs
	// nothing here: a load is marked done at issue, so cleanup starts at
	// once.
	c.hier.MSHR().CleanSpeculative(c.rob[bp].seq)
	res := c.scheme.OnSquash(c.hier, undo.SquashContext{
		Epoch:           c.rob[bp].seq,
		Now:             c.cycle,
		Transients:      transients,
		InflightCleaned: inflightCleaned,
	})

	c.stats.LastCleanupStall = uint64(res.StallCycles)
	c.met.cleanups.Inc()
	c.met.cleanupStall.ObserveInt(uint64(res.StallCycles))
	c.emit(KindCleanup, bp, int64(res.StallCycles))
	stallEnd := c.cycle + uint64(res.StallCycles)
	if stallEnd > c.stallUntil {
		c.stats.CleanupStall += stallEnd - max64(c.stallUntil, c.cycle)
		c.stallUntil = stallEnd
	}

	// Discard the wrong path and redirect fetch.
	c.discardAfter(i)
	if actualTaken {
		c.fetchPC = c.rob[bp].inst.Target
	} else {
		c.fetchPC = c.rob[bp].idx + 1
	}
	c.fetchStopped = false
	c.fetchReady = stallEnd + uint64(c.cfg.SquashPenalty)

	// The resolved branch may have been the only shadow over older-
	// window loads.
	c.commitClearedLoads()
}

// trap handles a faulting divide reaching the head of the ROB: the
// instructions fetched down the fall-through path are transient and are
// squashed exactly as after a branch mispredict — footprint handed to
// the undo scheme, MSHR scrubbed, rollback stall applied — and then the
// core halts at the faulting instruction (no handler is modelled). This
// is the exception-based transient window the div-by-zero gadgets use:
// the rollback residue is secret-dependent when the divisor is.
func (c *CPU) trap() {
	dp := c.robHead
	squashed := uint64(c.robLen - 1)
	c.stats.Squashes++
	c.stats.LastBranchResolution = c.cycle - c.rob[dp].fetchedAt
	c.met.squashes.Inc()
	c.met.resolution.ObserveInt(c.stats.LastBranchResolution)
	c.met.robOcc.Observe(float64(c.robLen))
	c.emit(KindSquash, dp, int64(squashed))
	c.stats.SquashedInst += squashed
	c.met.squashedInst.Add(squashed)

	transients, inflightCleaned := c.transientLoads(0)

	c.hier.MSHR().CleanSpeculative(c.rob[dp].seq)
	res := c.scheme.OnSquash(c.hier, undo.SquashContext{
		Epoch:           c.rob[dp].seq,
		Now:             c.cycle,
		Transients:      transients,
		InflightCleaned: inflightCleaned,
	})

	c.stats.LastCleanupStall = uint64(res.StallCycles)
	c.met.cleanups.Inc()
	c.met.cleanupStall.ObserveInt(uint64(res.StallCycles))
	c.emit(KindCleanup, dp, int64(res.StallCycles))
	stallEnd := c.cycle + uint64(res.StallCycles)
	if stallEnd > c.stallUntil {
		c.stats.CleanupStall += stallEnd - max64(c.stallUntil, c.cycle)
		c.stallUntil = stallEnd
	}

	// The whole window dies with the fault; nothing retires after it.
	c.robHead = 0
	c.robLen = 0
	c.resetSched()
	c.fetchStopped = true
	c.trapPending = true
	c.trapHaltAt = stallEnd
	c.progressed = true
}

// issue dispatches ready instructions out of order. It visits, in
// program order, the entries whose operands are ready among the first
// IssueWindow unissued ones, up to and including the oldest incomplete
// fence (everything younger waits for it).
func (c *CPU) issue() {
	if c.cycle < c.stallUntil {
		return
	}
	end := c.robLen
	if c.nFences > 0 {
		end = c.nextPos(c.fences, 0) + 1
	}
	if c.nUnissued > c.cfg.IssueWindow {
		end = min(end, c.nthPos(c.unissued, c.cfg.IssueWindow)+1)
	}
	issued, loads := 0, 0
	divIssuedClean := false // a div proved safe this cycle
	for i := c.nextPos(c.ready, 0); i < end && issued < c.cfg.IssueWidth; i = c.nextPos(c.ready, i+1) {
		p := c.slot(i)
		e := &c.rob[p]
		op := e.inst.Op
		switch op {
		case isa.OpFence:
			// Completes via complete(); takes no issue slot.
			e.set(fIssued)
			c.markIssued(p)
			c.progressed = true
			continue
		case isa.OpHalt, isa.OpNop, isa.OpJmp:
			e.set(fIssued | fDone)
			e.doneAt = c.cycle
			c.markIssued(p)
			c.progressed = true
			continue
		case isa.OpRdTSC:
			if !c.allOlderDone(i) {
				continue
			}
			e.set(fIssued | fDone)
			e.doneAt = c.cycle + 1
			e.val = c.cycle
			c.markIssued(p)
			c.scheduleDone(p)
			issued++
			continue
		default:
			// Loads, stores, flushes, branches and ALU ops issue through
			// the operand path below.
		}
		vals := c.sch[p].opnd
		e.srcA, e.srcB = vals[0], vals[1]
		switch op {
		case isa.OpLoad:
			if loads >= c.cfg.LoadPorts {
				continue
			}
			addr := mem.Addr(vals[0] + uint64(e.inst.Imm))
			e.addr = addr
			e.set(fAddrResolved)
			if c.blockedByOlderStore(i, addr) {
				continue
			}
			// The load's speculation epoch is its youngest older
			// shadow caster: an unresolved branch, or a divide not yet
			// proven non-faulting (younger loads run in the exception-
			// transient window of a potential divide fault).
			epoch, spec := uint64(0), false
			if u := c.prevPos(c.casters, i); u >= 0 {
				epoch, spec = c.rob[c.slot(u)].seq, true
				e.set(fSpecAtIssue)
				c.specLoads.set(p)
			}
			e.specEpoch = epoch
			var lat int
			if spec && !c.scheme.VisibleSpeculation() {
				e.set(fShadowed)
				e.access = c.hier.ReadShadow(addr, epoch, c.cycle)
				lat = e.access.Latency
			} else {
				e.access = c.hier.Read(addr, spec, epoch, c.cycle)
				lat = e.access.Latency
			}
			if e.access.MemAccess {
				lat += c.noise.LoadJitter()
				if lat < 1 {
					lat = 1
				}
			}
			e.val = e.access.Value
			e.set(fIssued | fDone)
			e.doneAt = c.cycle + uint64(lat)
			c.met.loadLatency.Observe(float64(lat))
			c.emit(KindIssue, p, int64(lat))
			issued++
			loads++
		case isa.OpStore, isa.OpFlush:
			e.addr = mem.Addr(vals[0] + uint64(e.inst.Imm))
			e.set(fAddrResolved | fIssued | fDone)
			e.doneAt = c.cycle + 1
			c.emit(KindIssue, p, 1)
			issued++
		case isa.OpBranchLT, isa.OpBranchGE, isa.OpBranchEQ, isa.OpBranchNE:
			e.set(fIssued)
			e.doneAt = c.cycle + uint64(c.cfg.BranchLatency)
			c.emit(KindIssue, p, int64(c.cfg.BranchLatency))
			issued++
		default:
			e.val = alu(e.inst, vals)
			lat := c.cfg.ALULatency
			if op == isa.OpMul || op == isa.OpDiv {
				lat = c.cfg.MulLatency
			}
			if op == isa.OpDiv {
				if vals[1] == 0 {
					e.set(fFaulting)
				} else {
					divIssuedClean = true
					c.casters.clear(p)
				}
			}
			e.set(fIssued | fDone)
			e.doneAt = c.cycle + uint64(lat)
			c.emit(KindIssue, p, int64(lat))
			issued++
		}
		c.markIssued(p)
		c.scheduleDone(p)
	}
	if issued > 0 {
		c.progressed = true
	}
	if divIssuedClean {
		// A divide that issued non-faulting may have been the only
		// shadow over younger already-issued loads.
		c.commitClearedLoads()
	}
	c.met.issued.Add(uint64(issued))
}

// blockedByOlderStore enforces memory ordering: the load at window
// position i waits for older stores/flushes with unresolved addresses,
// for older stores to the same word, and for older flushes to the same
// line.
func (c *CPU) blockedByOlderStore(i int, addr mem.Addr) bool {
	for j := c.nextPos(c.stores, 0); j < i; j = c.nextPos(c.stores, j+1) {
		e := &c.rob[c.slot(j)]
		if !e.is(fAddrResolved) {
			return true
		}
		if e.inst.Op == isa.OpStore {
			if e.addr.WordAlign() == addr.WordAlign() {
				return true
			}
		} else if e.addr.SameLine(addr) {
			return true
		}
	}
	return false
}

// fetch pulls instructions along the predicted path.
func (c *CPU) fetch() {
	if c.fetchStopped || c.cycle < c.fetchReady || c.cycle < c.stallUntil {
		return
	}
	for n := 0; n < c.cfg.FetchWidth; n++ {
		if c.robLen >= c.cfg.ROBSize {
			return
		}
		idx := c.fetchPC
		inst := c.prog.At(idx)
		if c.cfg.FetchTiming {
			lat := c.hier.FetchInst(mem.Addr(c.prog.PC(idx)), c.cycle)
			if lat > 1 {
				// I-miss: this fetch group ends and the frontend
				// stalls for the refill.
				c.fetchReady = c.cycle + uint64(lat)
				if n > 0 {
					return
				}
			}
		}
		p := c.slot(c.robLen)
		c.robLen++
		// Zero the slot in place and fill it: a composite-literal
		// assignment would build the entry in a temporary and copy it.
		e := &c.rob[p]
		*e = entry{}
		e.seq, e.idx, e.inst, e.fetchedAt = c.nextSeq, idx, inst, c.cycle
		c.nextSeq++
		c.dispatch(p)
		c.stats.Fetched++
		c.met.fetched.Inc()
		c.progressed = true
		c.emit(KindFetch, p, 0)

		switch {
		case inst.Op == isa.OpHalt:
			c.fetchStopped = true
			return
		case inst.Op == isa.OpJmp:
			c.fetchPC = inst.Target
		case inst.Op.IsBranch():
			pred := c.pred.Predict(idx)
			if pred.Taken {
				e.set(fPredTaken)
				c.fetchPC = inst.Target
			} else {
				c.fetchPC = idx + 1
			}
		default:
			c.fetchPC = idx + 1
		}
		if c.cfg.FetchTiming && c.fetchReady > c.cycle {
			return
		}
	}
}

// branchTaken evaluates a branch condition.
func branchTaken(op isa.Op, a, b uint64) bool {
	switch op {
	case isa.OpBranchLT:
		return a < b
	case isa.OpBranchGE:
		return a >= b
	case isa.OpBranchEQ:
		return a == b
	case isa.OpBranchNE:
		return a != b
	default:
		// Unreachable: callers gate on Op.IsBranch.
		return false
	}
}

// alu evaluates an ALU op.
func alu(inst isa.Inst, vals [2]uint64) uint64 {
	switch inst.Op {
	case isa.OpConst:
		return uint64(inst.Imm)
	case isa.OpMov:
		return vals[0]
	case isa.OpAdd:
		return vals[0] + vals[1]
	case isa.OpAddI:
		return vals[0] + uint64(inst.Imm)
	case isa.OpSub:
		return vals[0] - vals[1]
	case isa.OpMul:
		return vals[0] * vals[1]
	case isa.OpDiv:
		if vals[1] == 0 {
			// The fault is raised at retire; transient consumers of a
			// faulting divide observe zero.
			return 0
		}
		return vals[0] / vals[1]
	case isa.OpAnd:
		return vals[0] & vals[1]
	case isa.OpOr:
		return vals[0] | vals[1]
	case isa.OpXor:
		return vals[0] ^ vals[1]
	case isa.OpShlI:
		return vals[0] << uint(inst.Imm)
	case isa.OpShrI:
		return vals[0] >> uint(inst.Imm)
	default:
		// Non-ALU ops never reach the ALU (issue dispatches them above).
	}
	return 0
}

func boolToDetail(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
