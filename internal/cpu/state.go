package cpu

import (
	"repro/internal/isa"
	"repro/internal/noise"
)

// This file implements core state capture for the machine-level
// Snapshot/Fork primitive (docs/SNAPSHOTS.md). A State freezes the run
// state — ROB, cycle, fetch/stall/retire bookkeeping, statistics — plus
// the architectural registers; configuration, wiring (hierarchy, predictor, scheme,
// noise) and observers (tracer, flight recorder, telemetry) are shared
// by reference and deliberately not captured. Note the pre-existing
// Snapshot() method returns cumulative Stats and is unrelated.

// State is a frozen copy of the core's run state at one cycle.
type State struct {
	regs [isa.NumRegs]uint64
	prog *isa.Program
	// rob holds the live window's entries in window order.
	rob           []entry
	nextSeq       uint64
	cycle         uint64
	fetchPC       int
	fetchStopped  bool
	fetchReady    uint64
	stallUntil    uint64
	retireBlocked uint64
	halted        bool
	trapPending   bool
	trapHaltAt    uint64
	stats         Stats

	runStartCycle   uint64
	runStartRetired uint64
}

// Cycle returns the cycle at which the state was captured.
func (s *State) Cycle() uint64 { return s.cycle }

// Noise exposes the core's noise model (the machine aggregate captures
// its RNG position alongside this state).
func (c *CPU) Noise() noise.Model { return c.noise }

// SaveState captures the core's run state. The program pointer is
// shared (programs are immutable once running); everything else is
// copied by value, O(ROB occupancy).
func (c *CPU) SaveState() *State {
	st := &State{
		regs:            c.regs,
		prog:            c.prog,
		rob:             make([]entry, c.robLen),
		nextSeq:         c.nextSeq,
		cycle:           c.cycle,
		fetchPC:         c.fetchPC,
		fetchStopped:    c.fetchStopped,
		fetchReady:      c.fetchReady,
		stallUntil:      c.stallUntil,
		retireBlocked:   c.retireBlocked,
		halted:          c.halted,
		trapPending:     c.trapPending,
		trapHaltAt:      c.trapHaltAt,
		stats:           c.stats,
		runStartCycle:   c.runStartCycle,
		runStartRetired: c.runStartRetired,
	}
	copy(st.rob, c.rob[c.robHead:c.robHead+c.robLen])
	return st
}

// RestoreState rewinds the core to a state saved from the same core.
// ROB entries are copied to the front of the core's buffer, so a warm
// restore does not allocate. Observers are untouched: the tracer
// and flight recorder keep recording across the rewind (fork-safety
// rules in docs/SNAPSHOTS.md).
func (c *CPU) RestoreState(st *State) {
	c.robHead = 0
	c.robLen = copy(c.rob, st.rob)
	c.regs = st.regs
	c.prog = st.prog
	c.nextSeq = st.nextSeq
	c.cycle = st.cycle
	c.fetchPC = st.fetchPC
	c.fetchStopped = st.fetchStopped
	c.fetchReady = st.fetchReady
	c.stallUntil = st.stallUntil
	c.retireBlocked = st.retireBlocked
	c.halted = st.halted
	c.trapPending = st.trapPending
	c.trapHaltAt = st.trapHaltAt
	c.stats = st.stats
	c.runStartCycle = st.runStartCycle
	c.runStartRetired = st.runStartRetired
	c.progressed = false
}
