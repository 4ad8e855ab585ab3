// Package clean holds switches the exhaustive analyzer must accept:
// full coverage, deliberate defaults, and non-enum tags.
package clean

// State is a small coherence-style enum.
type State int

// The states.
const (
	Invalid State = iota
	Shared
	Modified
)

// Name covers every member: exhaustive without a default.
func Name(s State) string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Modified:
		return "M"
	}
	return "?"
}

// Deliberate carries a default arm instead of full coverage.
func Deliberate(s State) bool {
	switch s {
	case Modified:
		return true
	default:
		return false
	}
}

// Taint mirrors the absint taint lattice.
type Taint uint8

// The taint levels, ordered by the lattice chain.
const (
	Untainted Taint = iota
	SpecSecret
	Secret
)

// Label covers the whole lattice: exhaustive without a default.
func Label(t Taint) string {
	switch t {
	case Untainted:
		return "untainted"
	case SpecSecret:
		return "spec-secret"
	case Secret:
		return "secret"
	}
	return "?"
}

// NotEnum switches over a plain int; no constant set, no requirement.
func NotEnum(n int) bool {
	switch n {
	case 1:
		return true
	}
	return false
}

// Dynamic has a non-constant case, so the analyzer cannot (and must
// not) reason about coverage.
func Dynamic(s, other State) bool {
	switch s {
	case other:
		return true
	}
	return false
}

// TrialStatus is a small trial-outcome enum whose switch has a default
// arm as well as every member.
type TrialStatus uint8

// The trial outcomes.
const (
	TrialOK TrialStatus = iota
	TrialWatchdog
	TrialError
)

// Render covers every trial outcome plus a default fallback for
// out-of-range values — the usual String shape.
func Render(s TrialStatus) string {
	switch s {
	case TrialOK:
		return "ok"
	case TrialWatchdog:
		return "watchdog"
	case TrialError:
		return "error"
	default:
		return "?"
	}
}
