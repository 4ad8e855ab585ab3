package cache

// This file implements whole-cache state capture for the machine-level
// Snapshot/Fork primitive (docs/SNAPSHOTS.md). A Snapshot is a frozen
// value: taking one copies line metadata, counters and replacement
// state; restoring copies them back into the cache's existing backing
// arrays, so a warm snapshot/restore loop does not allocate. Telemetry
// (cacheMetrics) is deliberately NOT captured — metrics registries are
// observers of work performed, including replays.

// statefulPolicy is the optional capture interface replacement policies
// implement; all built-in policies do.
type statefulPolicy interface {
	SaveState() any
	RestoreState(any)
}

// setArray is flat per-set storage with dirty-set stamping, shared by
// the cache's lines and the LRU policy's recency stamps. Set s occupies
// data[s*ways : (s+1)*ways]. version counts mutations and stamp[s]
// records the version of set s's last one, so a set whose stamp is 0
// has never been mutated and still holds zero values.
type setArray[T any] struct {
	data    []T
	ways    int
	version uint64
	stamp   []uint64
}

func newSetArray[T any](sets, ways int) setArray[T] {
	return setArray[T]{data: make([]T, sets*ways), ways: ways, stamp: make([]uint64, sets)}
}

// set returns set s's ways.
func (a *setArray[T]) set(s int) []T {
	lo := s * a.ways
	return a.data[lo : lo+a.ways : lo+a.ways]
}

// touch records a mutation of set s.
func (a *setArray[T]) touch(s int) {
	a.version++
	a.stamp[s] = a.version
}

// setsCopy is a frozen copy of a setArray. Only sets mutated before the
// copy was taken are stored; the rest were all zero.
type setsCopy[T any] struct {
	sets []int // indices of the stored sets, ascending
	data []T   // their ways, set after set
	asOf uint64
}

// save copies every set with a non-zero stamp. Cost is O(sets) stamp
// reads plus O(mutated sets × ways) copying.
func (a *setArray[T]) save() setsCopy[T] {
	n := 0
	for _, st := range a.stamp {
		if st != 0 {
			n++
		}
	}
	c := setsCopy[T]{sets: make([]int, 0, n), data: make([]T, 0, n*a.ways), asOf: a.version}
	for s, st := range a.stamp {
		if st != 0 {
			c.sets = append(c.sets, s)
			c.data = append(c.data, a.set(s)...)
		}
	}
	return c
}

// restore rewinds the array to c, which must come from the same array.
// Only sets mutated since c was taken are written: a set whose stamp is
// at most c's version still holds exactly the captured values. Written
// sets are re-stamped with fresh versions, which is conservative under
// interleaved copies — a later restore against an older copy may
// rewrite an already-clean set, never the reverse.
func (a *setArray[T]) restore(c setsCopy[T]) {
	k := 0
	for s, st := range a.stamp {
		if st <= c.asOf {
			continue
		}
		for k < len(c.sets) && c.sets[k] < s {
			k++
		}
		if k < len(c.sets) && c.sets[k] == s {
			copy(a.set(s), c.data[k*a.ways:])
		} else {
			clear(a.set(s))
		}
		a.touch(s)
	}
}

// Snapshot is a frozen copy of one cache level's simulation state.
type Snapshot struct {
	lines  setsCopy[Line]
	stats  Stats
	policy any
}

// Snapshot captures the cache's lines, counters and replacement-policy
// state. Sets never mutated since New are not copied, so a cold
// snapshot copies no lines at all.
func (c *Cache) Snapshot() *Snapshot {
	s := &Snapshot{lines: c.lines.save(), stats: c.stats}
	if sp, ok := c.policy.(statefulPolicy); ok {
		s.policy = sp.SaveState()
	}
	return s
}

// Restore rewinds the cache to a snapshot taken from the same cache
// (same geometry and policy). Backing arrays are reused, and only sets
// mutated since the snapshot are written back, so a warm restore costs
// O(sets touched since the snapshot) copying and allocates nothing.
func (c *Cache) Restore(s *Snapshot) {
	c.lines.restore(s.lines)
	c.stats = s.stats
	if sp, ok := c.policy.(statefulPolicy); ok && s.policy != nil {
		sp.RestoreState(s.policy)
	}
}

// MSHRSnapshot is a frozen copy of an MSHR file's in-flight misses and
// counters.
type MSHRSnapshot struct {
	entries     []MSHREntry
	allocs      uint64
	stallEvents uint64
	peak        int
}

// Snapshot captures the in-flight misses and counters.
func (m *MSHRFile) Snapshot() *MSHRSnapshot {
	return &MSHRSnapshot{
		entries:     append([]MSHREntry(nil), m.entries...),
		allocs:      m.allocs,
		stallEvents: m.stallEvents,
		peak:        m.peak,
	}
}

// Restore rewinds the MSHR file to a snapshot; the entry slice is
// reused when capacity allows.
func (m *MSHRFile) Restore(s *MSHRSnapshot) {
	m.entries = append(m.entries[:0], s.entries...)
	m.allocs = s.allocs
	m.stallEvents = s.stallEvents
	m.peak = s.peak
}
