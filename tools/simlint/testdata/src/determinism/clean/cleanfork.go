package clean

// machine is a toy snapshot target: the fork family here is pure, so
// the forkpurity category must stay silent.
type machine struct {
	cycle uint64
	draws uint64
}

// Snapshot captures only machine state.
func (m *machine) Snapshot() machine { return *m }

// Restore replays only captured state.
func (m *machine) Restore(s machine) { *m = s }

// SaveState captures a seeded stream position instead of drawing new
// randomness — the pattern forkpurity is steering code toward.
func (m *machine) SaveState() any { return m.draws }

// RestoreState rewinds to the saved position.
func (m *machine) RestoreState(v any) { m.draws = v.(uint64) }

// Fork shares state copy-on-write; nothing here may consult a clock.
func (m *machine) Fork() *machine {
	out := *m
	return &out
}

// Checkpoint builds a worker's replica purely from captured state —
// every worker forks the identical machine, so batch results are a
// pure function of the trial index.
func (m *machine) Checkpoint() *machine {
	out := *m
	out.draws = 0
	return &out
}
