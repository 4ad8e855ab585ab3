package unxpec

import "repro/internal/machine"

// Checkpoint is a frozen attack state: a whole-machine copy-on-write
// snapshot (memory, caches, core, predictor, undo scheme, noise) plus
// the attack-level progress counters. Restoring a checkpoint rewinds
// the machine to the exact captured cycle, so thousands of measurement
// trials can be forked from one warm, calibrated state instead of
// replaying training and eviction-set construction per trial.
// Telemetry handles are observers and are deliberately not captured
// (see docs/SNAPSHOTS.md).
type Checkpoint struct {
	snap        *machine.Snapshot
	trained     bool
	rounds      uint64
	roundCycles uint64
}

// Checkpoint freezes the current attack state. The returned value
// stays valid until Release; taking one costs O(resident pages) for
// reference bumps plus one copy of each non-memory component.
func (a *Attack) Checkpoint() (*Checkpoint, error) {
	snap, err := machine.Of(a.core).Snapshot()
	if err != nil {
		return nil, err
	}
	return &Checkpoint{
		snap:        snap,
		trained:     a.trained,
		rounds:      a.rounds,
		roundCycles: a.roundCycles,
	}, nil
}

// Restore rewinds the attack to a checkpoint taken from this attack.
// It may be called any number of times; each call costs O(pages
// dirtied since the checkpoint).
func (a *Attack) Restore(cp *Checkpoint) error {
	if err := machine.Of(a.core).Restore(cp.snap); err != nil {
		return err
	}
	a.trained = cp.trained
	a.rounds = cp.rounds
	a.roundCycles = cp.roundCycles
	return nil
}

// Release drops the checkpoint's copy-on-write page references. The
// checkpoint must not be restored afterwards.
func (cp *Checkpoint) Release() { cp.snap.Release() }
