package cpu

import (
	"fmt"

	"repro/internal/branch"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/memsys"
	"repro/internal/noise"
	"repro/internal/undo"
)

// scanCore is the reference core: the same pipeline as CPU, written as
// plain scans of the ROB, which the differential tests hold the
// event-driven core to, event for event. Every stage walks the window:
// issue folds per-register producers and speculation sources in program
// order, complete rescans it for fences and branches, nextWakeupFrom
// scans every issued entry. The ROB is the window [robHead,
// robHead+robLen) of a buffer twice the architectural size, compacted on
// push. Telemetry handles stay nil and no flight recorder is attached.
type scanCore struct {
	cfg    Config
	hier   *memsys.Hierarchy
	pred   branch.Direction
	scheme undo.Scheme
	noise  noise.Model

	regs [isa.NumRegs]uint64

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

	trapPending bool
	trapHaltAt  uint64

	tracer Tracer
	met    coreMetrics
	stats  Stats

	runStartCycle   uint64
	runStartRetired uint64

	ff         bool
	quiet      bool
	progressed bool

	transientsBuf []undo.TransientLoad
}

func newScanCore(cfg Config, hier *memsys.Hierarchy, pred branch.Direction, scheme undo.Scheme, nz noise.Model) (*scanCore, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if hier == nil || pred == nil || scheme == nil {
		return nil, fmt.Errorf("cpu: hierarchy, predictor and scheme are required")
	}
	if nz == nil {
		nz = noise.None{}
	}
	c := &scanCore{cfg: cfg, hier: hier, pred: pred, scheme: scheme, noise: nz,
		rob: make([]entry, 2*cfg.ROBSize)}
	if s, ok := nz.(interface{ Silent() bool }); ok && s.Silent() {
		c.quiet = true
		c.ff = true
	}
	return c, nil
}

func (c *scanCore) SetFastForward(on bool) { c.ff = on }

func (c *scanCore) SetTracer(t Tracer) { c.tracer = t }

func (c *scanCore) Cycle() uint64 { return c.cycle }

func (c *scanCore) Halted() bool { return c.halted }

func (c *scanCore) Reg(r isa.Reg) uint64 {
	if r == isa.Zero {
		return 0
	}
	return c.regs[r]
}

func (c *scanCore) emit(kind Kind, p int, detail int64) {
	if c.tracer == nil {
		return
	}
	ev := TraceEvent{Cycle: c.cycle, Kind: kind, Detail: detail}
	if p >= 0 {
		e := &c.rob[p]
		ev.Seq, ev.PC, ev.Inst = e.seq, e.idx, e.inst
	}
	c.tracer.Event(ev)
}

// BeginProgram resets run state so Step can execute prog cycle by
// cycle. Architectural registers, caches and predictor training persist
// from earlier runs, exactly as for Run.
func (c *scanCore) BeginProgram(prog *isa.Program) {
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
func (c *scanCore) Step() (done bool) {
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
func (c *scanCore) nextWakeup() uint64 {
	// Inside Step the stages for the current cycle already ran, so only
	// strictly future instants count.
	return c.nextWakeupFrom(c.cycle + 1)
}

// nextWakeupFrom is nextWakeup with an explicit lower bound: the
// earliest candidate ≥ from. NextEventIn passes from == c.cycle because
// it is consulted after Step has advanced the cycle counter — an event
// tagged with exactly the current cycle (fetchReady, stall expiry) means
// the core can act on the very next Step and no cycles are skippable.
func (c *scanCore) nextWakeupFrom(from uint64) uint64 {
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
func (c *scanCore) MadeProgress() bool {
	if c.halted {
		return false
	}
	return c.progressed || !c.quiet
}

// NextEventIn returns how many cycles from now the core's next possible
// state change lies, or 0 when the core could progress immediately (or
// its wakeup cannot be predicted). Lockstep multi-core drivers take the
// minimum across cores and Advance them together.
func (c *scanCore) NextEventIn() uint64 {
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
func (c *scanCore) Advance(n uint64) {
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

// RunStats summarizes the current (or just-finished) program run.
func (c *scanCore) RunStats() Stats {
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
func (c *scanCore) Run(prog *isa.Program) Stats {
	c.BeginProgram(prog)
	for !c.Step() {
	}
	return c.RunStats()
}

// stepNoise injects system-interference stalls.
func (c *scanCore) stepNoise() {
	if d := c.noise.InterferenceStall(); d > 0 {
		end := c.cycle + uint64(d)
		if end > c.stallUntil {
			c.stats.NoiseStall += end - max64(c.stallUntil, c.cycle)
			c.stallUntil = end
		}
	}
}

// retire commits completed head instructions in order.
func (c *scanCore) retire() {
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
func (c *scanCore) popROB() {
	c.robHead++
	c.robLen--
}

// pushSlot claims the slot after the live window and returns its index,
// compacting the window to the front of the buffer when it reaches the
// end. fetch only pushes while robLen < ROBSize, so the 2×ROBSize
// buffer never overflows.
func (c *scanCore) pushSlot() int {
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
func (c *scanCore) complete() {
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
func (c *scanCore) completedNow(p int) bool {
	return c.rob[p].is(fDone) && c.rob[p].doneAt <= c.cycle
}

// allOlderDone reports whether every ROB entry older than position i is
// complete.
func (c *scanCore) allOlderDone(i int) bool {
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
func (c *scanCore) commitClearedLoads() {
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
func (c *scanCore) squash(i int, actualTaken bool) {
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
		Epoch:           c.rob[bp].seq,
		Now:             c.cycle,
		Transients:      transients,
		InflightCleaned: inflightCleaned,
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
func (c *scanCore) trap() {
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
	c.fetchStopped = true
	c.trapPending = true
	c.trapHaltAt = stallEnd
	c.progressed = true
}

// issue dispatches ready instructions out of order.
func (c *scanCore) issue() {
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
func (c *scanCore) blockedByOlderStore(i int, addr mem.Addr) bool {
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
func (c *scanCore) operandsVia(lastWriter *[isa.NumRegs]int32, p int) ([2]uint64, bool) {
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
func (c *scanCore) fetch() {
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
