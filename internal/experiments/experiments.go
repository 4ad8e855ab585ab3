// Package experiments contains one driver per table and figure in the
// paper's evaluation (§VI), each returning the same rows or series the
// paper reports. cmd/figures renders them to the console and CSV files;
// bench_test.go wraps each in a benchmark.
//
// Every sweep executes on internal/harness (see sweep.go): panics are
// contained, watchdog trips are classified errors, and failed cells
// become recorded gaps instead of aborted campaigns. Each experiment
// has exactly one entry point, and each reports its failures: a sweep
// returns its harness.Report, MinimalSafeConstantChecked an error, and
// LeakageRate a short Rounds count. No failure reaches a caller as a
// clean-looking number.
package experiments

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/memsys"
	"repro/internal/unxpec"
)

// TableIRow is one row of the experiment-setup table.
type TableIRow struct {
	Module        string
	Configuration string
}

// TableI returns the simulated machine's configuration, which matches
// the paper's Table I.
func TableI() []TableIRow {
	c := cpu.DefaultConfig()
	m := memsys.DefaultConfig(0)
	return []TableIRow{
		{"Processor", fmt.Sprintf("1 core, %.0f GHz, out-of-order %d-entry ROB", c.ClockGHz, c.ROBSize)},
		{"Private L1 I cache", fmt.Sprintf("%d KB, %d-way, %d-set", m.L1I.SizeBytes()/1024, m.L1I.Ways, m.L1I.Sets)},
		{"Private L1 D cache", fmt.Sprintf("%d KB, %d-way, %d-set", m.L1D.SizeBytes()/1024, m.L1D.Ways, m.L1D.Sets)},
		{"Shared L2 cache", fmt.Sprintf("%d MB, %d-way, %d-set", m.L2.SizeBytes()/(1024*1024), m.L2.Ways, m.L2.Sets)},
		{"Memory", fmt.Sprintf("%d ns RT after L2", int(float64(m.MemLatency)/c.ClockGHz))},
	}
}

// ResolutionPoint is one Figure 2 / Figure 13 sample: branch resolution
// time for a given f(N) depth, in-branch load count and secret value.
type ResolutionPoint struct {
	FNAccesses int
	Loads      int
	Secret     int
	Resolution float64
}

// DiffPoint is one Figure 3 / Figure 6 sample: the secret-dependent
// timing difference at a given number of squashed (transient) loads.
type DiffPoint struct {
	Loads int
	Diff  float64
}

// PDFResult carries a Figure 7 / Figure 8 distribution pair.
type PDFResult struct {
	Samples0, Samples1 []float64
	// Xs, Density0, Density1 are the KDE curves over the plot range.
	Xs, Density0, Density1 []float64
	Mean0, Mean1, Diff     float64
	Threshold              float64
	TrainAccuracy          float64
}

// Figure9 returns the random 1,000-bit secret instance.
func Figure9(bits int, seed int64) []int { return unxpec.RandomSecret(bits, seed) }

// LeakageResult carries a Figure 10 / Figure 11 run.
type LeakageResult struct {
	unxpec.LeakResult
	Threshold float64
	Rate      unxpec.RateReport
}

// LeakageRate reproduces §VI-B: the sample rate on a 2 GHz clock over
// the given number of alternating-secret rounds. It stops at the first
// round that fails, so a report with fewer than the requested Rounds
// is a failed measurement, not a slower channel.
func LeakageRate(seed int64, rounds int, evictionSets bool) unxpec.RateReport {
	a := unxpec.MustNew(unxpec.Options{Seed: seed, UseEvictionSets: evictionSets})
	for i := 0; i < rounds; i++ {
		if _, err := a.MeasureOnceChecked(i % 2); err != nil {
			break
		}
	}
	return a.LeakageRate(2.0)
}

// Figure12Cell is one (workload, scheme) overhead measurement.
type Figure12Cell struct {
	Workload string
	Scheme   string
	Cycles   uint64
	// Overhead is execution time normalized to the unsafe baseline,
	// minus one (0.25 = 25% slowdown).
	Overhead float64
}

// Figure12Result is the constant-time rollback overhead study.
type Figure12Result struct {
	Cells []Figure12Cell
	// MeanOverhead maps scheme name → arithmetic-mean overhead across
	// the suite (the paper's "average slowdown").
	MeanOverhead map[string]float64
	Schemes      []string
	Workloads    []string
}

// MitigationPoint summarizes one scheme of the extension study: fuzzy-
// time dummy delays (§VII future work) versus constant-time rollback.
type MitigationPoint struct {
	Scheme string
	// ResidualDiff is the remaining secret-dependent mean difference
	// observable through the defense (0 = channel closed).
	ResidualDiff float64
	// MeanOverhead is the Figure 12-style cost on the suite.
	MeanOverhead float64
}
