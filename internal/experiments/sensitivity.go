package experiments

import (
	"fmt"

	"repro/internal/harness"
	"repro/internal/noise"
	"repro/internal/undo"
	"repro/internal/unxpec"
)

// NoisePoint is one cell of the noise-robustness study: single-sample
// decode accuracy as a function of measurement-noise magnitude, with
// and without eviction sets. The paper argues (§VI-D) that the larger
// eviction-set difference buys robustness; this quantifies the claim.
type NoisePoint struct {
	Sigma       float64
	Accuracy    float64
	AccuracyES  float64
	SamplesUsed int
}

// NoiseRobustnessWith sweeps the Gaussian noise σ and reports
// accuracies: one cell per σ, each calibrating both eviction-set
// variants on a fresh machine.
func NoiseRobustnessWith(r *harness.Runner, seed int64, sigmas []float64, samples int) ([]NoisePoint, *harness.Report, error) {
	var cells []harness.Cell
	for i, sigma := range sigmas {
		i, sigma := i, sigma
		cells = append(cells, harness.Cell{
			ID:   fmt.Sprintf("sigma%g", sigma),
			Seed: seed,
			Run: func(t *harness.Trial) (any, error) {
				run := func(es bool) (float64, error) {
					nz := noise.NewSystem(t.Seed + int64(i*100))
					nz.Sigma = sigma
					nz.SpikeProb = 0 // isolate the Gaussian component
					a, err := unxpec.New(unxpec.Options{
						Seed: t.Seed + int64(i), UseEvictionSets: es, Noise: nz,
					})
					if err != nil {
						return 0, err
					}
					t.Observe(a.Core())
					cal, err := a.CalibrateChecked(samples)
					if err != nil {
						return 0, err
					}
					return cal.TrainAcc, nil
				}
				acc, err := run(false)
				if err != nil {
					return nil, err
				}
				accES, err := run(true)
				if err != nil {
					return nil, err
				}
				return NoisePoint{Sigma: sigma, Accuracy: acc, AccuracyES: accES, SamplesUsed: samples}, nil
			},
		})
	}
	return sweepCollect[NoisePoint](r, "sensitivity_noise", cells)
}

// LatencyModelPoint is one cell of the rollback-model sensitivity
// study: how the observable difference scales with the hardware cost of
// the first invalidation and first restoration — the two constants that
// anchor the 22/32-cycle results. It answers "would unXpec survive a
// faster cleanup pipeline?".
type LatencyModelPoint struct {
	InvFirst     int
	RestoreFirst int
	// Diff is the single-load difference with eviction sets.
	Diff float64
}

// LatencyModelSensitivityWith sweeps the two anchor costs, one cell
// per (InvFirst, RestoreFirst) pair.
func LatencyModelSensitivityWith(r *harness.Runner, seed int64, invFirsts, restoreFirsts []int) ([]LatencyModelPoint, *harness.Report, error) {
	var cells []harness.Cell
	for _, inv := range invFirsts {
		for _, rest := range restoreFirsts {
			inv, rest := inv, rest
			cells = append(cells, harness.Cell{
				ID:   fmt.Sprintf("inv%d-rest%d", inv, rest),
				Seed: seed,
				Run: func(t *harness.Trial) (any, error) {
					m := undo.DefaultLatencyModel()
					m.InvFirstCycles = inv
					m.RestoreFirstCycles = rest
					scheme := undo.NewCleanupSpecWithModel(m)
					a, err := unxpec.New(unxpec.Options{
						Seed: t.Seed, UseEvictionSets: true, Scheme: scheme,
					})
					if err != nil {
						return nil, err
					}
					t.Observe(a.Core())
					l1, err := a.MeasureOnceChecked(1)
					if err != nil {
						return nil, err
					}
					l0, err := a.MeasureOnceChecked(0)
					if err != nil {
						return nil, err
					}
					return LatencyModelPoint{InvFirst: inv, RestoreFirst: rest,
						Diff: float64(l1) - float64(l0)}, nil
				},
			})
		}
	}
	return sweepCollect[LatencyModelPoint](r, "sensitivity_latency", cells)
}
