package bad

import (
	"math/rand"
	"time"
)

// machine is a toy snapshot target for the forkpurity fixtures.
type machine struct {
	cycle uint64
	seed  int64
}

// Snapshot stamps wall-clock time into captured state — two snapshots
// of the same machine would differ. Fires both wallclock and
// forkpurity; the latter cannot be waived with //simlint:wallclock.
func (m *machine) Snapshot() machine {
	return machine{cycle: uint64(time.Now().UnixNano()), seed: m.seed} // want "reads the wall clock" "fork-family function Snapshot"
}

// Restore perturbs replayed state with the global generator — two
// restores of the same snapshot would diverge.
func (m *machine) Restore(s machine) {
	m.cycle = s.cycle + uint64(rand.Intn(3)) // want "global generator" "fork-family function Restore"
}

// SaveState shows the waiver gap: the wallclock category is
// suppressed, but forkpurity still fires.
func (m *machine) SaveState() any {
	return time.Now() //simlint:wallclock pretend this is fine // want "fork-family function SaveState"
}

// Checkpoint seeds the captured replica from the global generator —
// two workers checkpointing the same machine would fork different
// replicas and batch results would depend on scheduling.
func (m *machine) Checkpoint() *machine {
	return &machine{seed: rand.Int63()} // want "global generator" "fork-family function Checkpoint"
}
