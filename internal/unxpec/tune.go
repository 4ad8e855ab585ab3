package unxpec

import (
	"math"

	"repro/internal/undo"
)

// TunePoint is one candidate configuration's measured trade-off
// (§V-C): more loads in the branch widen the timing difference (better
// noise robustness) but lengthen the round (lower rate) and eventually
// dilute the difference's share of the window (worse accuracy).
type TunePoint struct {
	Loads int
	// Diff is the calibrated secret-dependent difference.
	Diff float64
	// Accuracy is the single-sample training accuracy under noise.
	Accuracy float64
	// SamplesPerSecond at the 2 GHz clock.
	SamplesPerSecond float64
	// CapacityBps is the effective channel capacity: rate scaled by
	// the binary-symmetric-channel capacity of the observed error
	// probability — the metric the attacker actually maximizes.
	CapacityBps float64
}

// binaryEntropy returns H2(p).
func binaryEntropy(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return -p*math.Log2(p) - (1-p)*math.Log2(1-p)
}

// AutoTune sweeps LoadsInBranch over 1..maxLoads, calibrating each
// candidate with calib samples per secret value, and returns the sweep
// plus the index of the capacity-maximizing configuration. Each
// candidate gets a fresh scheme from schemeFactory (schemes carry
// statistics and must not be shared across machines); nil defaults to
// CleanupSpec.
func AutoTune(base Options, schemeFactory func() undo.Scheme, maxLoads, calib int) ([]TunePoint, int, error) {
	if maxLoads < 1 {
		maxLoads = 1
	}
	if schemeFactory == nil {
		schemeFactory = func() undo.Scheme { return undo.NewCleanupSpec() }
	}
	var points []TunePoint
	best := 0
	for loads := 1; loads <= maxLoads; loads++ {
		opts := base
		opts.LoadsInBranch = loads
		opts.Scheme = schemeFactory()
		a, err := New(opts)
		if err != nil {
			return nil, 0, err
		}
		cal, err := a.CalibrateChecked(calib)
		if err != nil {
			return nil, 0, err
		}
		rate := a.LeakageRate(2.0)
		pErr := 1 - cal.TrainAcc
		pt := TunePoint{
			Loads:            loads,
			Diff:             cal.Diff,
			Accuracy:         cal.TrainAcc,
			SamplesPerSecond: rate.SamplesPerSecond,
			CapacityBps:      rate.SamplesPerSecond * (1 - binaryEntropy(pErr)),
		}
		points = append(points, pt)
		if pt.CapacityBps > points[best].CapacityBps {
			best = loads - 1
		}
	}
	return points, best, nil
}
