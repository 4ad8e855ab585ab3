package cache

import "repro/internal/mem"

// MSHREntry records one in-flight miss. CleanupSpec repurposes the MSHR
// to remember, per transient fill, which line the fill displaced — the
// information the restoration half of rollback needs (paper §II-B, T3/T5).
type MSHREntry struct {
	LineAddr mem.Addr
	// Speculative marks misses issued under an unresolved branch.
	Speculative bool
	Epoch       uint64
	// IssueCycle is when the miss left for the next level.
	IssueCycle uint64
	// FillCycle is when the response installs the line.
	FillCycle uint64
	// EvictedL1 is the L1 victim displaced by this fill (zero address +
	// HasVictim=false when the fill used an invalid way).
	EvictedL1 mem.Addr
	HasVictim bool
	// VictimWasSpeculative is true when the displaced line was itself a
	// transient install, in which case restoration is unnecessary.
	VictimWasSpeculative bool
}

// MSHRFile models a bounded miss-status holding register file. Structural
// hazards on it (all entries busy) stall further misses — the contention
// the speculative interference attack exploits against Invisible
// defenses, reproduced here for completeness.
type MSHRFile struct {
	capacity int
	entries  []MSHREntry
	// doneBuf backs Complete's return value; reused across calls so the
	// per-cycle tick never allocates.
	doneBuf []MSHREntry
	// stats
	allocs      uint64
	stallEvents uint64
	peak        int
}

// NewMSHRFile returns an MSHR file with the given number of entries.
func NewMSHRFile(capacity int) *MSHRFile {
	if capacity <= 0 {
		capacity = 16
	}
	return &MSHRFile{capacity: capacity}
}

// Capacity returns the structural size.
func (m *MSHRFile) Capacity() int { return m.capacity }

// Occupancy returns the number of live entries.
func (m *MSHRFile) Occupancy() int { return len(m.entries) }

// Full reports whether a new miss would stall.
func (m *MSHRFile) Full() bool { return len(m.entries) >= m.capacity }

// Allocate records a new in-flight miss. It returns false (and counts a
// stall) when the file is full.
func (m *MSHRFile) Allocate(e MSHREntry) bool {
	if m.Full() {
		m.stallEvents++
		return false
	}
	m.entries = append(m.entries, e)
	m.allocs++
	if len(m.entries) > m.peak {
		m.peak = len(m.entries)
	}
	return true
}

// Complete removes entries whose FillCycle is at or before now,
// returning them. The hierarchy calls this each cycle boundary. The
// returned slice is reused by the next Complete call; callers that
// retain it must copy.
func (m *MSHRFile) Complete(now uint64) []MSHREntry {
	done := m.doneBuf[:0]
	kept := m.entries[:0]
	for _, e := range m.entries {
		if e.FillCycle <= now {
			done = append(done, e)
		} else {
			kept = append(kept, e)
		}
	}
	m.entries = kept
	m.doneBuf = done
	return done
}

// NextFill returns the earliest FillCycle strictly after now among the
// in-flight entries, and whether any such entry exists. This is the
// MSHR half of the idle-cycle fast-forward contract: between now and
// the returned cycle, ticking the file is a no-op.
func (m *MSHRFile) NextFill(now uint64) (uint64, bool) {
	var best uint64
	found := false
	for i := range m.entries {
		fc := m.entries[i].FillCycle
		if fc > now && (!found || fc < best) {
			best = fc
			found = true
		}
	}
	return best, found
}

// CleanSpeculative removes all speculative entries with epoch >= epoch
// (T3 of the CleanupSpec timeline: "request MSHR to clean inflight
// mis-speculated loads"), returning how many were cleaned.
func (m *MSHRFile) CleanSpeculative(epoch uint64) int {
	n := 0
	kept := m.entries[:0]
	for _, e := range m.entries {
		if e.Speculative && e.Epoch >= epoch {
			n++
			continue
		}
		kept = append(kept, e)
	}
	m.entries = kept
	return n
}

// SpeculativeEntries returns copies of the live speculative entries with
// epoch >= epoch.
func (m *MSHRFile) SpeculativeEntries(epoch uint64) []MSHREntry {
	var out []MSHREntry
	for _, e := range m.entries {
		if e.Speculative && e.Epoch >= epoch {
			out = append(out, e)
		}
	}
	return out
}

// Entries returns a copy of all live entries.
func (m *MSHRFile) Entries() []MSHREntry {
	out := make([]MSHREntry, len(m.entries))
	copy(out, m.entries)
	return out
}

// Stalls returns the number of allocation failures observed.
func (m *MSHRFile) Stalls() uint64 { return m.stallEvents }

// Allocs returns the number of successful allocations.
func (m *MSHRFile) Allocs() uint64 { return m.allocs }

// Peak returns the high-water occupancy.
func (m *MSHRFile) Peak() int { return m.peak }
