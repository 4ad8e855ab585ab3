package experiments

import (
	"repro/internal/undo"
	"repro/internal/unxpec"
)

// MinConstPoint records, for a given attacker strength (transient loads
// with eviction sets), the smallest relaxed constant-time rollback that
// fully closes the channel — the §VI-E defender's dilemma quantified:
// the constant must cover the *worst-case* rollback the attacker can
// force, and the attacker controls that with eviction sets.
type MinConstPoint struct {
	Loads int
	// WorstStall is the rollback stall the attacker forces.
	WorstStall int
	// MinSafeConst is the smallest constant with zero residual mean
	// difference, found by verification against the live attack.
	MinSafeConst int
	// OverheadAtConst is the Figure 12-style mean overhead a defender
	// pays for that constant (interpolated from the calibrated model's
	// per-squash cost; reported by the full Figure 12 sweep).
	OverheadAtConst float64
}

// MinimalSafeConstantChecked sweeps attacker strengths and, for each,
// searches for the minimal closing constant by binary search over live
// attack rounds. overheadPerCycle converts a constant to the expected
// mean suite overhead (measured ≈1% per cycle of constant at the
// calibrated squash density; pass 0 to skip the estimate).
//
// A failed round ends the sweep with its error and the points found so
// far: a timed-out round reads latency 0 for both secrets, which the
// comparison would otherwise misread as "channel closed".
func MinimalSafeConstantChecked(seed int64, maxLoads int, overheadPerCycle float64) ([]MinConstPoint, error) {
	var out []MinConstPoint
	for loads := 1; loads <= maxLoads; loads++ {
		// Worst-case stall for this attacker: measure it once.
		probe := unxpec.MustNew(unxpec.Options{
			Seed: seed, LoadsInBranch: loads, UseEvictionSets: true,
		})
		if _, err := probe.MeasureOnceChecked(1); err != nil {
			return out, err
		}
		_, worst := probe.LastSquashStats()

		closes := func(c int) (bool, error) {
			a := unxpec.MustNew(unxpec.Options{
				Seed: seed, LoadsInBranch: loads, UseEvictionSets: true,
				Scheme: undo.NewConstantTime(c, undo.Relaxed),
			})
			for r := 0; r < 3; r++ {
				l1, err := a.MeasureOnceChecked(1)
				if err != nil {
					return false, err
				}
				l0, err := a.MeasureOnceChecked(0)
				if err != nil {
					return false, err
				}
				if l1 != l0 {
					return false, nil
				}
			}
			return true, nil
		}
		lo, hi := 1, int(worst)+8
		for lo < hi {
			mid := (lo + hi) / 2
			closed, err := closes(mid)
			if err != nil {
				return out, err
			}
			if closed {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		out = append(out, MinConstPoint{
			Loads:           loads,
			WorstStall:      int(worst),
			MinSafeConst:    lo,
			OverheadAtConst: float64(lo) * overheadPerCycle,
		})
	}
	return out, nil
}
