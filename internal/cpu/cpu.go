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
// The ROB is a slice of entry records owned by the core: the live
// window is the index range [robHead, robHead+robLen) of a buffer twice
// the architectural size, so head pops are O(1) and compaction on push
// is amortized.
package cpu

import (
	"fmt"

	"repro/internal/branch"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/memsys"
	"repro/internal/noise"
	"repro/internal/teletrace"
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

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.ROBSize <= 0 || c.FetchWidth <= 0 || c.IssueWidth <= 0 || c.RetireWidth <= 0 {
		return fmt.Errorf("cpu: widths and ROB size must be positive")
	}
	if c.LoadPorts <= 0 || c.IssueWindow <= 0 {
		return fmt.Errorf("cpu: load ports and issue window must be positive")
	}
	if c.MaxCycles == 0 {
		return fmt.Errorf("cpu: zero watchdog")
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
// which is sound because an entry holds no pointers.
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
	fSquashed
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

	// Run state. The ROB is the contiguous index window
	// [robHead, robHead+robLen) into rob.
	prog          *isa.Program
	rob           []entry
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
	span   *teletrace.Span
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
	// The ROB window lives in a buffer twice the architectural size so
	// head pops are O(1) and compaction on push is amortized; slots are
	// reused in place, so the steady-state run loop performs zero heap
	// allocations.
	c := &CPU{cfg: cfg, hier: hier, pred: pred, scheme: scheme, noise: nz,
		rob: make([]entry, 2*cfg.ROBSize)}
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
		if c.span != nil {
			c.span.Eventf("watchdog", "run exhausted MaxCycles=%d at cycle %d", c.cfg.MaxCycles, c.cycle)
		}
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
			if c.span != nil && d-1 >= spanJumpEventThreshold {
				c.span.Eventf("fast-forward", "skipped %d idle cycles to cycle %d", d-1, w)
			}
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
	for p := c.robHead; p < c.robHead+c.robLen; p++ {
		e := &c.rob[p]
		if e.is(fIssued) && e.doneAt >= from {
			lower(e.doneAt)
		}
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
	if c.span != nil && n >= spanJumpEventThreshold {
		c.span.Eventf("fast-forward", "advanced %d idle cycles to cycle %d", n, c.cycle+n)
	}
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
			if rd, ok := e.inst.DstReg(); ok {
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

// popROB retires the head entry from the live window.
func (c *CPU) popROB() {
	c.robHead++
	c.robLen--
}

// pushSlot claims the slot after the live window and returns its index,
// compacting the window to the front of the buffer when it reaches the
// end. fetch only pushes while robLen < ROBSize, so the 2×ROBSize
// buffer never overflows.
func (c *CPU) pushSlot() int {
	end := c.robHead + c.robLen
	if end == len(c.rob) {
		copy(c.rob, c.rob[c.robHead:end])
		c.robHead = 0
		end = c.robLen
	}
	c.robLen++
	return end
}

// complete marks finished executions and resolves branches (possibly
// squashing).
func (c *CPU) complete() {
	// Fences complete when everything older is done.
	for i := 0; i < c.robLen; i++ {
		p := c.robHead + i
		e := &c.rob[p]
		if e.inst.Op == isa.OpFence && !e.is(fDone) && c.allOlderDone(i) {
			e.set(fDone)
			e.doneAt = c.cycle
			c.progressed = true
		}
	}
	// Resolve branches whose execution finished this cycle. Resolve
	// the oldest first: an older mispredict supersedes younger ones.
	for i := 0; i < c.robLen; i++ {
		p := c.robHead + i
		e := &c.rob[p]
		if !e.inst.Op.IsBranch() || !e.is(fIssued) || e.is(fResolved) || e.doneAt > c.cycle {
			continue
		}
		e.set(fDone | fResolved)
		c.progressed = true
		actual := branchTaken(e.inst.Op, e.srcA, e.srcB)
		mispred := actual != e.is(fPredTaken)
		c.emit(KindResolve, p, boolToDetail(mispred))
		c.pred.Update(e.idx, actual, e.inst.Target, mispred)
		if mispred {
			c.squash(i, actual)
			// Everything younger is gone; resolution pass is over.
			break
		}
		c.commitClearedLoads()
	}
}

// completedNow reports whether entry p's execution has truly finished by
// the current cycle (issue marks done with a future doneAt).
func (c *CPU) completedNow(p int) bool {
	return c.rob[p].is(fDone) && c.rob[p].doneAt <= c.cycle
}

// allOlderDone reports whether every ROB entry older than position i is
// complete.
func (c *CPU) allOlderDone(i int) bool {
	for j := 0; j < i; j++ {
		if !c.completedNow(c.robHead + j) {
			return false
		}
	}
	return true
}

// commitClearedLoads clears speculative marks for issued loads no longer
// shadowed by any unresolved branch, and performs deferred installs for
// invisible schemes.
func (c *CPU) commitClearedLoads() {
	// One pass in program order: shadowed latches once an unresolved
	// branch (or a divide not yet proven non-faulting) is seen,
	// replacing a per-load rescan of all older entries.
	shadowed := false
	for i := 0; i < c.robLen; i++ {
		p := c.robHead + i
		e := &c.rob[p]
		op := e.inst.Op
		castsShadow := (op.IsBranch() && !e.is(fResolved)) ||
			(op == isa.OpDiv && (!e.is(fIssued) || e.is(fFaulting)))
		if op != isa.OpLoad || !e.is(fIssued) || !e.is(fSpecAtIssue) || e.is(fCommittedSpec) {
			if castsShadow {
				shadowed = true
			}
			continue
		}
		if shadowed {
			continue
		}
		e.set(fCommittedSpec)
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

// squash handles a mispredicted branch at ROB position i: discard the
// younger entries, hand the transient footprint to the undo scheme, and
// stall/redirect per the paper's T3–T6.
func (c *CPU) squash(i int, actualTaken bool) {
	bp := c.robHead + i
	c.stats.Squashes++
	c.stats.LastBranchResolution = c.cycle - c.rob[bp].fetchedAt
	c.met.squashes.Inc()
	c.met.resolution.ObserveInt(c.stats.LastBranchResolution)
	c.met.robOcc.Observe(float64(c.robLen))
	c.emit(KindSquash, bp, int64(c.robLen-i-1))

	// The transient-load list is rebuilt into a reused buffer: no
	// scheme retains it past OnSquash (the slice contents are copied
	// into whatever bookkeeping the scheme keeps).
	transients := c.transientsBuf[:0]
	inflightCleaned := 0
	for j := i + 1; j < c.robLen; j++ {
		p := c.robHead + j
		e := &c.rob[p]
		e.set(fSquashed)
		c.stats.SquashedInst++
		c.met.squashedInst.Inc()
		if e.inst.Op != isa.OpLoad || !e.is(fIssued) || e.is(fShadowed) {
			continue
		}
		if !e.is(fDone) || e.doneAt > c.cycle {
			inflightCleaned++
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

	// T4: wait for older in-flight correct-path loads to drain.
	cleanupStart := c.cycle
	for j := 0; j <= i; j++ {
		p := c.robHead + j
		e := &c.rob[p]
		if e.is(fIssued) && !e.is(fDone) && e.inst.Op == isa.OpLoad && e.doneAt > cleanupStart {
			cleanupStart = e.doneAt
		}
	}

	c.hier.MSHR().CleanSpeculative(c.rob[bp].seq)
	c.transientsBuf = transients
	res := c.scheme.OnSquash(c.hier, undo.SquashContext{
		Epoch:              c.rob[bp].seq,
		Now:                c.cycle,
		Transients:         transients,
		InflightCleaned:    inflightCleaned,
		OldestInflightDone: cleanupStart,
	})

	c.stats.LastCleanupStall = uint64(res.StallCycles)
	c.met.cleanups.Inc()
	c.met.cleanupStall.ObserveInt(uint64(res.StallCycles))
	c.emit(KindCleanup, bp, int64(res.StallCycles))
	stallEnd := cleanupStart + uint64(res.StallCycles)
	if stallEnd > c.stallUntil {
		c.stats.CleanupStall += stallEnd - max64(c.stallUntil, c.cycle)
		c.stallUntil = stallEnd
	}

	// Discard the wrong path and redirect fetch.
	c.robLen = i + 1
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
	c.stats.Squashes++
	c.stats.LastBranchResolution = c.cycle - c.rob[dp].fetchedAt
	c.met.squashes.Inc()
	c.met.resolution.ObserveInt(c.stats.LastBranchResolution)
	c.met.robOcc.Observe(float64(c.robLen))
	c.emit(KindSquash, dp, int64(c.robLen-1))

	transients := c.transientsBuf[:0]
	inflightCleaned := 0
	for j := 1; j < c.robLen; j++ {
		p := c.robHead + j
		e := &c.rob[p]
		e.set(fSquashed)
		c.stats.SquashedInst++
		c.met.squashedInst.Inc()
		if e.inst.Op != isa.OpLoad || !e.is(fIssued) || e.is(fShadowed) {
			continue
		}
		if !e.is(fDone) || e.doneAt > c.cycle {
			inflightCleaned++
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

	c.hier.MSHR().CleanSpeculative(c.rob[dp].seq)
	c.transientsBuf = transients
	res := c.scheme.OnSquash(c.hier, undo.SquashContext{
		Epoch:              c.rob[dp].seq,
		Now:                c.cycle,
		Transients:         transients,
		InflightCleaned:    inflightCleaned,
		OldestInflightDone: c.cycle,
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
	c.fetchStopped = true
	c.trapPending = true
	c.trapHaltAt = stallEnd
	c.progressed = true
}

// issue dispatches ready instructions out of order.
func (c *CPU) issue() {
	if c.cycle < c.stallUntil {
		return
	}
	issued, loads := 0, 0
	scanned := 0
	// Incremental dependency trackers, updated as the scan walks the ROB
	// in program order (each tracker folds in entry i-1 at the top of
	// iteration i, after that entry's own processing — exactly the state
	// a per-position rescan would observe). They answer the "does any
	// older entry ..." questions in O(1) that the rescans answered in
	// O(ROB), turning the issue stage from quadratic to linear in ROB
	// occupancy.
	fenceBlocked := false              // incomplete fence among older entries
	ubSeq, ubFound := uint64(0), false // youngest older speculation source
	divIssuedClean := false            // a div proved safe this cycle
	// lastWriter holds, per register, 1 + the buffer position of its
	// youngest older producer (0 = none in the window). Positions are
	// stable within one issue pass: nothing pushes or pops mid-scan.
	var lastWriter [isa.NumRegs]int32
	for i := 0; i < c.robLen; i++ {
		if issued >= c.cfg.IssueWidth {
			break
		}
		p := c.robHead + i
		e := &c.rob[p]
		if i > 0 {
			q := p - 1
			prev := &c.rob[q]
			qOp := prev.inst.Op
			if rd, ok := prev.inst.DstReg(); ok {
				lastWriter[rd] = int32(q) + 1
			}
			if qOp == isa.OpFence && !c.completedNow(q) {
				fenceBlocked = true
			}
			if qOp.IsBranch() && !prev.is(fResolved) {
				ubSeq, ubFound = prev.seq, true
			}
			// A divide is a speculation source until it proves its
			// divisor non-zero at issue: younger loads run in the
			// exception-transient window of a potential divide fault.
			if qOp == isa.OpDiv && (!prev.is(fIssued) || prev.is(fFaulting)) {
				ubSeq, ubFound = prev.seq, true
			}
		}
		if e.is(fIssued) {
			continue
		}
		scanned++
		if scanned > c.cfg.IssueWindow {
			break
		}
		if fenceBlocked {
			continue
		}
		op := e.inst.Op
		switch op {
		case isa.OpFence:
			// Completes via complete(); takes no issue slot.
			e.set(fIssued)
			c.progressed = true
			continue
		case isa.OpHalt, isa.OpNop, isa.OpJmp:
			e.set(fIssued | fDone)
			e.doneAt = c.cycle
			c.progressed = true
			continue
		case isa.OpRdTSC:
			if !c.allOlderDone(i) {
				continue
			}
			e.set(fIssued | fDone)
			e.doneAt = c.cycle + 1
			e.val = c.cycle
			issued++
			continue
		default:
			// Loads, stores, flushes, branches and ALU ops issue through
			// the operand path below.
		}
		vals, ready := c.operandsVia(&lastWriter, p)
		if !ready {
			continue
		}
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
			epoch, spec := ubSeq, ubFound
			if spec {
				e.set(fSpecAtIssue)
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
				}
			}
			e.set(fIssued | fDone)
			e.doneAt = c.cycle + uint64(lat)
			c.emit(KindIssue, p, int64(lat))
			issued++
		}
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

// blockedByOlderStore enforces memory ordering: a load waits for older
// stores/flushes with unresolved addresses, for older stores to the
// same word, and for older flushes to the same line.
func (c *CPU) blockedByOlderStore(i int, addr mem.Addr) bool {
	for j := 0; j < i; j++ {
		p := c.robHead + j
		e := &c.rob[p]
		switch e.inst.Op {
		case isa.OpStore:
			if !e.is(fAddrResolved) || e.addr.WordAlign() == addr.WordAlign() {
				return true
			}
		case isa.OpFlush:
			if !e.is(fAddrResolved) || e.addr.SameLine(addr) {
				return true
			}
		default:
			// Only stores and flushes impose memory ordering on loads.
		}
	}
	return false
}

// operandsVia is operand lookup for the issue scan: lastWriter already
// holds each register's youngest older producer position, so readiness
// costs O(1) instead of a backward ROB walk. Readiness of the producer
// is judged at call time (done && doneAt ≤ now).
func (c *CPU) operandsVia(lastWriter *[isa.NumRegs]int32, p int) ([2]uint64, bool) {
	var vals [2]uint64
	for k, r := range c.rob[p].inst.SrcRegs() {
		if r == isa.Zero {
			continue
		}
		if lw := lastWriter[r]; lw != 0 {
			prod := &c.rob[int(lw)-1]
			if !prod.is(fDone) || prod.doneAt > c.cycle {
				return vals, false
			}
			vals[k] = prod.val
			continue
		}
		vals[k] = c.regs[r]
	}
	return vals, true
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
		p := c.pushSlot()
		c.rob[p] = entry{seq: c.nextSeq, idx: idx, inst: inst, fetchedAt: c.cycle}
		c.nextSeq++
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
				c.rob[p].set(fPredTaken)
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
