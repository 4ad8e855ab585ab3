package memsys

import "repro/internal/cache"

// State is a frozen copy of one hierarchy's simulation state: every
// cache level (a deferred coherence downgrade rides on its L2 line),
// the MSHR file and the counters. The backing mem.Memory is captured by
// the machine owner via mem.Memory.Fork, not here. A hierarchy built by
// NewShared shares levels with other agents, so no per-hierarchy State
// of it is consistent; machine snapshots refuse it (docs/SNAPSHOTS.md).
type State struct {
	l1i, l1d, l2 *cache.Snapshot
	mshr         *cache.MSHRSnapshot
	stats        Stats
}

// SaveState captures the hierarchy's cache levels, MSHRs and counters.
func (h *Hierarchy) SaveState() *State {
	return &State{
		l1i:   h.l1i.Snapshot(),
		l1d:   h.l1d.Snapshot(),
		l2:    h.l2.Snapshot(),
		mshr:  h.mshr.Snapshot(),
		stats: h.stats,
	}
}

// RestoreState rewinds the hierarchy to a state saved from the same
// hierarchy. Backing arrays are reused.
func (h *Hierarchy) RestoreState(st *State) {
	h.l1i.Restore(st.l1i)
	h.l1d.Restore(st.l1d)
	h.l2.Restore(st.l2)
	h.mshr.Restore(st.mshr)
	h.stats = st.stats
}
