package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cpu"
	"repro/internal/harness"
	"repro/internal/memsys"
	"repro/internal/noise"
	"repro/internal/stats"
	"repro/internal/undo"
	"repro/internal/unxpec"
	"repro/internal/workload"
)

// Every sweep in this package routes through internal/harness: cells
// run on a bounded worker pool with panic containment, watchdog
// escalation, seed-perturbing retries and (when the runner journals)
// resumable campaigns. Each experiment has one entry point, its *With
// function, which takes the runner and returns the values of the cells
// that completed together with the sweep's harness.Report. A failed
// cell is a gap in the values, never a zero: the caller decides what a
// gap means — cmd/figures writes a PARTIAL CSV and exits with the
// failure's class, ReproductionReportWith refuses to score the sweep.
//
// Determinism contract: each cell derives all randomness from
// t.Seed (== the experiment seed on the first attempt), builds a fresh
// machine, and shares no state with other cells — so results are
// byte-identical regardless of worker count or scheduling order.

// sweepCollect runs cells through r and decodes the successful values
// in input order.
func sweepCollect[T any](r *harness.Runner, name string, cells []harness.Cell) ([]T, *harness.Report, error) {
	rep, err := r.Sweep(name, cells)
	if err != nil {
		return nil, nil, err
	}
	vals, err := harness.Collect[T](rep)
	return vals, rep, err
}

// resolutionSweepWith measures T1–T2 for every (N, loads, secret) cell
// on the harness.
func resolutionSweepWith(r *harness.Runner, name string, seed int64, rounds int,
	mk func(n, loads int, seed int64) (*unxpec.Attack, error)) ([]ResolutionPoint, *harness.Report, error) {
	return sweepCollect[ResolutionPoint](r, name, resolutionCells(seed, rounds, mk))
}

// resolutionCells enumerates the Figure 2/13 sweep as independent
// harness cells.
func resolutionCells(seed int64, rounds int,
	mk func(n, loads int, seed int64) (*unxpec.Attack, error)) []harness.Cell {
	var cells []harness.Cell
	for n := 1; n <= 3; n++ {
		for loads := 1; loads <= 5; loads++ {
			for secret := 0; secret <= 1; secret++ {
				n, loads, secret := n, loads, secret
				cells = append(cells, harness.Cell{
					ID:   fmt.Sprintf("n%d-l%d-s%d", n, loads, secret),
					Seed: seed,
					Run: func(t *harness.Trial) (any, error) {
						a, err := mk(n, loads, t.Seed)
						if err != nil {
							return nil, err
						}
						t.Observe(a.Core())
						a.SetMetrics(t.Metrics)
						var sum float64
						for rr := 0; rr < rounds; rr++ {
							if _, err := a.MeasureOnceChecked(secret); err != nil {
								return nil, err
							}
							res, _ := a.LastSquashStats()
							sum += float64(res)
						}
						return ResolutionPoint{
							FNAccesses: n, Loads: loads, Secret: secret,
							Resolution: sum / float64(rounds),
						}, nil
					},
				})
			}
		}
	}
	return cells
}

// figure2Attack builds the Figure 2 machine for one cell.
func figure2Attack(n, loads int, s int64) (*unxpec.Attack, error) {
	return unxpec.New(unxpec.Options{Seed: s, FNAccesses: n, LoadsInBranch: loads})
}

// Figure2With reproduces the branch-resolution study on the simulated
// CleanupSpec machine: resolution is flat in the number of in-branch
// loads and the secret, and scales with f(N).
func Figure2With(r *harness.Runner, seed int64) ([]ResolutionPoint, *harness.Report, error) {
	return resolutionSweepWith(r, "figure2", seed, 3, figure2Attack)
}

// figure13Attack builds the host-CPU-profile machine for one Figure 13
// cell. The memory hierarchy is derived from the sweep seed, so the
// builder must know it independently of the per-attempt cell seed.
func figure13Attack(seed int64) func(n, loads int, s int64) (*unxpec.Attack, error) {
	hostMem := memsys.DefaultConfig(seed)
	hostMem.L2.Sets = 4096 // 4 MiB LLC stand-in
	hostMem.MemLatency = 140
	return func(n, loads int, s int64) (*unxpec.Attack, error) {
		cfg := hostMem
		return unxpec.New(unxpec.Options{
			Seed: s, FNAccesses: n, LoadsInBranch: loads,
			Mem: &cfg, Noise: noise.NewHostOS(s + int64(n*10+loads)),
		})
	}
}

// Figure13With repeats the Figure 2 study on the "real CPU" host
// profile: larger caches, deeper memory, OS-grade noise (i7-8550U
// stand-in).
func Figure13With(r *harness.Runner, seed int64) ([]ResolutionPoint, *harness.Report, error) {
	return resolutionSweepWith(r, "figure13", seed, 9, figure13Attack(seed))
}

// diffSweepWith measures mean(secret1) − mean(secret0) per load count
// on the harness.
func diffSweepWith(r *harness.Runner, name string, seed int64, evictionSets bool, rounds int) ([]DiffPoint, *harness.Report, error) {
	return sweepCollect[DiffPoint](r, name, diffCells(seed, evictionSets, rounds))
}

// diffCells enumerates the Figure 3/6 sweep as shardable cells.
func diffCells(seed int64, evictionSets bool, rounds int) []harness.Cell {
	var cells []harness.Cell
	for loads := 1; loads <= 8; loads++ {
		cells = append(cells, diffCell(seed, loads, evictionSets, rounds, workload.SchemeFactory{}))
	}
	return cells
}

// diffCell measures mean(secret1) − mean(secret0) over rounds at one
// load count under scheme; a zero SchemeFactory leaves unxpec's
// default, CleanupSpec.
func diffCell(seed int64, loads int, evictionSets bool, rounds int, scheme workload.SchemeFactory) harness.Cell {
	return harness.Cell{
		ID:   fmt.Sprintf("l%d", loads),
		Seed: seed,
		Run: func(t *harness.Trial) (any, error) {
			opts := unxpec.Options{Seed: t.Seed, LoadsInBranch: loads, UseEvictionSets: evictionSets}
			if scheme.New != nil {
				opts.Scheme = scheme.New()
			}
			a, err := unxpec.New(opts)
			if err != nil {
				return nil, err
			}
			t.Observe(a.Core())
			a.SetMetrics(t.Metrics)
			var s0, s1 float64
			for rr := 0; rr < rounds; rr++ {
				l0, err := a.MeasureOnceChecked(0)
				if err != nil {
					return nil, err
				}
				s0 += float64(l0)
				l1, err := a.MeasureOnceChecked(1)
				if err != nil {
					return nil, err
				}
				s1 += float64(l1)
			}
			return DiffPoint{Loads: loads, Diff: (s1 - s0) / float64(rounds)}, nil
		},
	}
}

// Figure3With reproduces the rollback timing difference without
// eviction sets (≈22 cycles, shallow growth).
func Figure3With(r *harness.Runner, seed int64) ([]DiffPoint, *harness.Report, error) {
	return diffSweepWith(r, "figure3", seed, false, 5)
}

// Figure6With reproduces the rollback timing difference with eviction
// sets (≈32 → ≈64 cycles).
func Figure6With(r *harness.Runner, seed int64) ([]DiffPoint, *harness.Report, error) {
	return diffSweepWith(r, "figure6", seed, true, 5)
}

// pdfCell runs one full Figure 7/8 distribution measurement as a
// single (heavy) harness cell.
func pdfCell(name string, seed int64, evictionSets bool, n int) harness.Cell {
	return harness.Cell{
		ID:   "distributions",
		Seed: seed,
		Run: func(t *harness.Trial) (any, error) {
			a, err := unxpec.New(unxpec.Options{
				Seed: t.Seed, UseEvictionSets: evictionSets, Noise: noise.NewSystem(t.Seed + 1000),
			})
			if err != nil {
				return nil, err
			}
			t.Observe(a.Core())
			a.SetMetrics(t.Metrics)
			cal, err := a.CalibrateChecked(n)
			if err != nil {
				return nil, err
			}
			res := PDFResult{
				Samples0: cal.Samples0, Samples1: cal.Samples1,
				Mean0: cal.Mean0, Mean1: cal.Mean1, Diff: cal.Diff,
				Threshold: cal.Threshold, TrainAccuracy: cal.TrainAcc,
			}
			lo, hi := res.Mean0-40, res.Mean1+40
			if k0, err := stats.NewKDE(cal.Samples0, 0); err == nil {
				res.Xs, res.Density0 = k0.Curve(lo, hi, 121)
			}
			if k1, err := stats.NewKDE(cal.Samples1, 0); err == nil {
				_, res.Density1 = k1.Curve(lo, hi, 121)
			}
			return res, nil
		},
	}
}

// measureDistributionsWith collects the Figure 7/8 sample pair through
// the harness.
func measureDistributionsWith(r *harness.Runner, name string, seed int64, evictionSets bool, n int) (PDFResult, *harness.Report, error) {
	vals, rep, err := sweepCollect[PDFResult](r, name, []harness.Cell{pdfCell(name, seed, evictionSets, n)})
	if err != nil {
		return PDFResult{}, rep, err
	}
	if len(vals) == 0 {
		return PDFResult{}, rep, rep.Err()
	}
	return vals[0], rep, nil
}

// Figure7With reproduces the no-eviction-set latency PDFs (Δ≈22
// cycles) from samples measurements per secret value.
func Figure7With(r *harness.Runner, seed int64, samples int) (PDFResult, *harness.Report, error) {
	return measureDistributionsWith(r, "figure7", seed, false, samples)
}

// Figure8With reproduces the eviction-set latency PDFs (Δ≈32 cycles).
func Figure8With(r *harness.Runner, seed int64, samples int) (PDFResult, *harness.Report, error) {
	return measureDistributionsWith(r, "figure8", seed, true, samples)
}

// leakCell runs one full Figure 10/11 leak campaign as a single
// (heavy) harness cell.
func leakCell(seed int64, evictionSets bool, bits, calibration int) harness.Cell {
	return harness.Cell{
		ID:   "leak",
		Seed: seed,
		Run: func(t *harness.Trial) (any, error) {
			a, err := unxpec.New(unxpec.Options{
				Seed: t.Seed, UseEvictionSets: evictionSets, Noise: noise.NewSystem(t.Seed + 2000),
			})
			if err != nil {
				return nil, err
			}
			t.Observe(a.Core())
			a.SetMetrics(t.Metrics)
			cal, err := a.CalibrateChecked(calibration)
			if err != nil {
				return nil, err
			}
			secret := unxpec.RandomSecret(bits, t.Seed+3000)
			res, err := a.LeakSecretChecked(secret, cal.Threshold, 1)
			if err != nil {
				return nil, err
			}
			return LeakageResult{LeakResult: res, Threshold: cal.Threshold, Rate: a.LeakageRate(2.0)}, nil
		},
	}
}

// leakRunWith is the Figure 10/11 leak campaign through the harness.
func leakRunWith(r *harness.Runner, name string, seed int64, evictionSets bool, bits, calibration int) (LeakageResult, *harness.Report, error) {
	vals, rep, err := sweepCollect[LeakageResult](r, name, []harness.Cell{leakCell(seed, evictionSets, bits, calibration)})
	if err != nil {
		return LeakageResult{}, rep, err
	}
	if len(vals) == 0 {
		return LeakageResult{}, rep, rep.Err()
	}
	return vals[0], rep, nil
}

// Figure10With reproduces secret leakage without eviction sets
// (≈86.7%).
func Figure10With(r *harness.Runner, seed int64, bits int) (LeakageResult, *harness.Report, error) {
	return leakRunWith(r, "figure10", seed, false, bits, 300)
}

// Figure11With reproduces secret leakage with eviction sets (≈91.6%).
func Figure11With(r *harness.Runner, seed int64, bits int) (LeakageResult, *harness.Report, error) {
	return leakRunWith(r, "figure11", seed, true, bits, 300)
}

// Figure12With runs the benchmark suite under the scheme ladder: one
// cell per (workload, scheme) pair, overheads and means recomputed from
// the completed cells, so a failed cell leaves a gap instead of
// aborting the suite or poisoning the averages. scale controls dynamic
// instruction counts; 10_000 reproduces the published shape in
// seconds, larger values sharpen the averages.
func Figure12With(r *harness.Runner, seed int64, scale int) (Figure12Result, *harness.Report, error) {
	schemes := workload.StandardSchemes()
	done, rep, err := sweepCollect[Figure12Cell](r, "figure12", figure12Cells(seed, scale, schemes))
	if err != nil {
		return Figure12Result{}, rep, err
	}
	return figure12Assemble(done, seed, scale, schemes), rep, nil
}

// figure12Cells enumerates an overhead study as shardable cells, one
// per (workload, scheme) pair. The ladder's "unsafe" scheme is the
// baseline figure12Assemble normalizes against.
func figure12Cells(seed int64, scale int, schemes []workload.SchemeFactory) []harness.Cell {
	var cells []harness.Cell
	for _, w := range workload.Suite(scale, seed) {
		for _, sf := range schemes {
			w, sf := w, sf
			cells = append(cells, harness.Cell{
				ID:   w.Name + "/" + sf.Name,
				Seed: seed,
				Run: func(t *harness.Trial) (any, error) {
					res, err := workload.RunInstrumented(w, sf.New(), t.Seed, t.Metrics,
						func(core *cpu.CPU) { t.Observe(core) })
					if err != nil {
						return nil, err
					}
					return Figure12Cell{Workload: w.Name, Scheme: sf.Name, Cycles: res.Stats.Cycles}, nil
				},
			})
		}
	}
	return cells
}

// figure12Assemble recomputes overheads and per-scheme means from the
// completed cells. A failed cell leaves its sample out of its scheme's
// mean; a failed unsafe baseline leaves its workload out of every
// mean; a scheme with no sample left has no mean.
func figure12Assemble(done []Figure12Cell, seed int64, scale int, schemes []workload.SchemeFactory) Figure12Result {
	res := Figure12Result{MeanOverhead: map[string]float64{}}
	for _, s := range schemes {
		res.Schemes = append(res.Schemes, s.Name)
	}
	for _, w := range workload.Suite(scale, seed) {
		res.Workloads = append(res.Workloads, w.Name)
	}
	baseline := map[string]uint64{}
	for _, c := range done {
		if c.Scheme == "unsafe" {
			baseline[c.Workload] = c.Cycles
		}
	}
	for _, c := range done {
		if b := baseline[c.Workload]; b > 0 {
			c.Overhead = float64(c.Cycles)/float64(b) - 1
		}
		res.Cells = append(res.Cells, c)
	}
	for _, s := range schemes {
		var sum float64
		var n int
		for _, c := range res.Cells {
			// A workload whose unsafe baseline is a gap contributes no
			// overhead sample — better a narrower mean than a poisoned
			// one.
			if c.Scheme == s.Name && baseline[c.Workload] > 0 {
				sum += c.Overhead
				n++
			}
		}
		if n > 0 {
			res.MeanOverhead[s.Name] = sum / float64(n)
		}
	}
	return res
}

// mitigationSchemes is the mitigation study's ladder: the unsafe
// baseline, then the candidate defenses. Fuzzy time draws its dummy
// delays from the experiment seed.
func mitigationSchemes(seed int64) []workload.SchemeFactory {
	return []workload.SchemeFactory{
		{Name: "unsafe", New: func() undo.Scheme { return undo.NewUnsafe() }},
		{Name: "cleanupspec", New: func() undo.Scheme { return undo.NewCleanupSpec() }},
		{Name: "const-65-relaxed", New: func() undo.Scheme { return undo.NewConstantTime(65, undo.Relaxed) }},
		{Name: "fuzzy-40", New: func() undo.Scheme { return undo.NewFuzzyTime(40, uint64(seed)) }},
	}
}

// mitigationCells enumerates the mitigation study: the Figure 12 cells
// of its ladder, then one Figure 3 diff cell (one load, no eviction
// sets) per candidate defense, as residual/<scheme>.
func mitigationCells(seed int64, scale, rounds int) []harness.Cell {
	schemes := mitigationSchemes(seed)
	cells := figure12Cells(seed, scale, schemes)
	for _, sf := range schemes[1:] {
		c := diffCell(seed, 1, false, rounds, sf)
		c.ID = "residual/" + sf.Name
		cells = append(cells, c)
	}
	return cells
}

// MitigationStudyWith compares constant-time rollback with the paper's
// proposed fuzzy-time defense on both axes, residual channel width and
// performance overhead, in one sweep: the overhead column comes from
// Figure 12's cells and assembly over the study's ladder, the residual
// column from a Figure 3 diff cell per defense. A defense whose
// residual cell failed, or which has no overhead sample left under
// Figure 12's gap rule, has no point.
func MitigationStudyWith(r *harness.Runner, seed int64, scale, rounds int) ([]MitigationPoint, *harness.Report, error) {
	rep, err := r.Sweep("mitigation", mitigationCells(seed, scale, rounds))
	if err != nil {
		return nil, nil, err
	}
	var done []Figure12Cell
	residual := map[string]float64{}
	for _, o := range rep.Outcomes {
		if !o.OK() {
			continue
		}
		if name, ok := strings.CutPrefix(o.Cell, rep.Name+"/residual/"); ok {
			d, err := harness.Decode[DiffPoint](o)
			if err != nil {
				return nil, rep, err
			}
			residual[name] = d.Diff
			continue
		}
		c, err := harness.Decode[Figure12Cell](o)
		if err != nil {
			return nil, rep, err
		}
		done = append(done, c)
	}
	schemes := mitigationSchemes(seed)
	mean := figure12Assemble(done, seed, scale, schemes).MeanOverhead
	var pts []MitigationPoint
	for _, sf := range schemes[1:] {
		diff, okR := residual[sf.Name]
		overhead, okO := mean[sf.Name]
		if okR && okO {
			pts = append(pts, MitigationPoint{Scheme: sf.Name, ResidualDiff: diff, MeanOverhead: overhead})
		}
	}
	return pts, rep, nil
}
