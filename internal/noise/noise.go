// Package noise models the timing noise an attacker measures through:
// memory-access jitter (DRAM timing variation) and heavy-tailed system
// interference (interrupt/scheduler events). gem5 itself is nearly
// deterministic, but the paper's threat model places honest programs on
// the same core and its Figures 7/8/10/11 show both a Gaussian-looking
// spread and rare large outliers; this package reproduces that texture
// with seeded, reproducible sources.
package noise

import (
	"math/rand"

	"repro/internal/detrand"
)

// Model supplies the two noise hooks the CPU consumes.
type Model interface {
	// Name identifies the model.
	Name() string
	// LoadJitter returns extra (possibly negative) cycles added to one
	// memory-servicing access.
	LoadJitter() int
	// InterferenceStall returns a stall duration in cycles when a
	// system-interference event hits the current cycle, else 0. The
	// CPU calls it once per simulated cycle.
	InterferenceStall() int
}

// None is a silent model: fully deterministic runs for unit tests.
type None struct{}

// Name implements Model.
func (None) Name() string { return "none" }

// Silent reports that this model never injects jitter or stalls, so
// the CPU may fast-forward over idle cycles without changing how many
// times the model is consulted. Stateful models (whose RNG stream is
// position-dependent) must not implement this marker.
func (None) Silent() bool { return true }

// LoadJitter implements Model.
func (None) LoadJitter() int { return 0 }

// InterferenceStall implements Model.
func (None) InterferenceStall() int { return 0 }

// System is the calibrated noisy environment: Gaussian memory jitter
// plus Poisson-arriving interference spikes. The seeded generator is
// wrapped in a detrand.CountingSource so the noise stream's exact
// position can be snapshotted as one integer (SaveState) and restored
// by reseed-and-replay — wrapping does not change the values drawn.
type System struct {
	src *detrand.CountingSource
	rng *rand.Rand
	// Sigma is the standard deviation of per-memory-access jitter.
	Sigma float64
	// SpikeProb is the per-cycle probability of an interference event.
	SpikeProb float64
	// SpikeMin/SpikeMax bound the stall duration of one event.
	SpikeMin, SpikeMax int
}

// newSystem wires the counting source; the calibration fields are the
// caller's.
func newSystem(seed int64) *System {
	src := detrand.NewCountingSource(seed)
	return &System{src: src, rng: rand.New(src)}
}

// NewSystem returns the calibrated model used for the paper's
// measurement figures: σ ≈ 10 cycles of access jitter and rare
// ~200-cycle spikes, which lands the single-sample decode accuracies in
// the paper's 86–92% band (see DESIGN.md §4).
func NewSystem(seed int64) *System {
	s := newSystem(seed)
	s.Sigma = 10.5
	s.SpikeProb = 1.0 / 12000
	s.SpikeMin = 150
	s.SpikeMax = 230
	return s
}

// NewHostOS returns a louder model for the Figure 13 "real CPU" profile
// (i7-8550U under a full OS).
func NewHostOS(seed int64) *System {
	s := newSystem(seed)
	s.Sigma = 18
	s.SpikeProb = 1.0 / 6000
	s.SpikeMin = 200
	s.SpikeMax = 2000
	return s
}

// SaveState captures the noise stream position.
func (s *System) SaveState() any { return s.src.Draws() }

// RestoreState rewinds or fast-forwards the noise stream to a saved
// position; cost is O(draws replayed), zero allocations.
func (s *System) RestoreState(v any) { s.src.SeekTo(v.(uint64)) }

// Name implements Model.
func (s *System) Name() string { return "system" }

// LoadJitter implements Model.
func (s *System) LoadJitter() int {
	j := int(s.rng.NormFloat64() * s.Sigma)
	// Latency cannot go below the structural minimum; clamp the
	// negative tail so one access never gets faster than ~a third off.
	if j < -30 {
		j = -30
	}
	return j
}

// InterferenceStall implements Model.
func (s *System) InterferenceStall() int {
	if s.SpikeProb <= 0 || s.rng.Float64() >= s.SpikeProb {
		return 0
	}
	if s.SpikeMax <= s.SpikeMin {
		return s.SpikeMin
	}
	return s.SpikeMin + s.rng.Intn(s.SpikeMax-s.SpikeMin)
}
