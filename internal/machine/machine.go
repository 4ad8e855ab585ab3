// Package machine aggregates the per-component state-capture APIs into
// a single whole-machine Snapshot/Restore/Fork primitive: backing
// memory (copy-on-write page sharing), cache hierarchy (lines,
// policies, MSHRs, deferred coherence work), CPU run state (ROB, fetch,
// stalls, registers), branch predictor tables, undo-scheme state
// (including FuzzyTime's RNG position) and the noise model's RNG
// position.
//
// The intended shape is calibrate-once, fork-thousands: warm a machine
// up (train predictors, build eviction sets, fill caches), take one
// Fork, then run each trial and Restore back — the restore touches only
// what the trial dirtied, so trial setup cost is O(dirty state), not
// O(warmup). See docs/SNAPSHOTS.md for the cost model and fork-safety
// rules; observers (tracers, flight recorders, telemetry registries)
// are deliberately NOT part of a snapshot.
package machine

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/memsys"
)

// stateful is the structural capture interface shared by replacement
// policies, predictors, undo schemes and noise models.
type stateful interface {
	SaveState() any
	RestoreState(any)
}

// silent marks noise models that are stateless (noise.None).
type silent interface{ Silent() bool }

// State identifies one single-core machine by its core; the hierarchy
// and backing memory are reached through it. A core of a multi-agent
// machine (multicore.System) shares cache levels and memory with its
// siblings, so it cannot be snapshotted on its own: Snapshot refuses it
// rather than capture half a machine.
type State struct {
	core *cpu.CPU
}

// Of returns the machine aggregate rooted at core.
func Of(core *cpu.CPU) State { return State{core: core} }

// CPU returns the underlying core.
func (s State) CPU() *cpu.CPU { return s.core }

// Snapshot is a frozen whole-machine state. It is immutable once taken
// and may be restored any number of times, including after further
// snapshots.
type Snapshot struct {
	mem    *mem.Memory // frozen COW fork of the backing store
	hier   *memsys.State
	core   *cpu.State
	pred   any
	scheme any
	noise  any // nil for silent models
}

// Cycle returns the cycle at which the snapshot was taken.
func (s *Snapshot) Cycle() uint64 { return s.core.Cycle() }

// Release drops the snapshot's copy-on-write page references so
// sibling refcounts return to 1. The snapshot must not be restored
// afterwards.
func (s *Snapshot) Release() { s.mem.Release() }

// Snapshot captures the whole machine. Cost is O(cache geometry + ROB
// occupancy + resident memory pages); no page data is copied (the
// memory side is a COW fork). It fails when a component holds state the
// capture interfaces cannot reach (e.g. a custom noise model without
// SaveState) or when the core's hierarchy is shared with other agents.
func (s State) Snapshot() (*Snapshot, error) {
	core := s.core
	if core.Hierarchy().Shared() {
		return nil, fmt.Errorf("machine: core shares its hierarchy with other agents; a multi-agent machine has no per-core snapshot")
	}
	snap := &Snapshot{
		mem:  core.Hierarchy().Memory().Fork(),
		hier: core.Hierarchy().SaveState(),
		core: core.SaveState(),
	}
	var err error
	if snap.pred, err = saveComponent("predictor", core.Predictor()); err != nil {
		return nil, err
	}
	if snap.scheme, err = saveComponent("scheme", core.Scheme()); err != nil {
		return nil, err
	}
	if nz := core.Noise(); !isSilent(nz) {
		if snap.noise, err = saveComponent("noise model", nz); err != nil {
			return nil, err
		}
	}
	return snap, nil
}

// Fork is Snapshot under its intended name: the frozen state a batch of
// trials restores from.
func (s State) Fork() (*Snapshot, error) { return s.Snapshot() }

// Restore rewinds the machine to snap. The machine must be the one the
// snapshot was taken from (same wiring); backing arrays and the ROB
// buffer are reused, so a warm restore allocates only COW page
// bookkeeping.
func (s State) Restore(snap *Snapshot) error {
	core := s.core
	core.Hierarchy().Memory().Restore(snap.mem)
	core.Hierarchy().RestoreState(snap.hier)
	core.RestoreState(snap.core)
	if err := restoreComponent("predictor", core.Predictor(), snap.pred); err != nil {
		return err
	}
	if err := restoreComponent("scheme", core.Scheme(), snap.scheme); err != nil {
		return err
	}
	if snap.noise != nil {
		if err := restoreComponent("noise model", core.Noise(), snap.noise); err != nil {
			return err
		}
	}
	return nil
}

func isSilent(v any) bool {
	q, ok := v.(silent)
	return ok && q.Silent()
}

func saveComponent(what string, v any) (any, error) {
	st, ok := v.(stateful)
	if !ok {
		return nil, fmt.Errorf("machine: %s %T does not implement SaveState/RestoreState", what, v)
	}
	return st.SaveState(), nil
}

func restoreComponent(what string, v, state any) error {
	st, ok := v.(stateful)
	if !ok {
		return fmt.Errorf("machine: %s %T does not implement SaveState/RestoreState", what, v)
	}
	st.RestoreState(state)
	return nil
}
