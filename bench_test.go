// Package repro_test holds the benchmark harness: one testing.B bench
// per table and figure of the paper's evaluation, plus ablation benches
// for the design choices called out in DESIGN.md §5. Each bench reports
// the reproduced quantity as a custom metric alongside the usual
// ns/op, so `go test -bench=. -benchmem` regenerates every headline
// number in one run.
package repro_test

import (
	"testing"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/evict"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/mem"
	"repro/internal/memsys"
	"repro/internal/noise"
	"repro/internal/stats"
	"repro/internal/undo"
	"repro/internal/unxpec"
	"repro/internal/workload"
)

// newRunner returns an in-memory harness runner for the sweeps.
func newRunner(tb testing.TB) *harness.Runner {
	r, err := harness.New(harness.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

// sweepOK fails the benchmark when a sweep errored or left a gap.
func sweepOK(tb testing.TB, rep *harness.Report, err error) {
	tb.Helper()
	if err == nil {
		err = rep.Err()
	}
	if err != nil {
		tb.Fatal(err)
	}
}

// measure runs one attack round, failing the benchmark on a watchdog
// trip.
func measure(tb testing.TB, a *unxpec.Attack, secret int) uint64 {
	tb.Helper()
	lat, err := a.MeasureOnceChecked(secret)
	if err != nil {
		tb.Fatal(err)
	}
	return lat
}

// BenchmarkTableIConfig measures raw simulator speed on the Table I
// machine: cycles simulated per wall-clock second while running the
// stream workload.
func BenchmarkTableIConfig(b *testing.B) {
	w := workload.Stream(2000)
	var cycles uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := workload.RunChecked(w, undo.NewCleanupSpec(), 1)
		if err != nil {
			b.Fatal(err)
		}
		cycles += r.Stats.Cycles
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "sim-cycles/op")
}

// BenchmarkFigure2BranchResolution reproduces the resolution-time study
// and reports the N=1 mean resolution.
func BenchmarkFigure2BranchResolution(b *testing.B) {
	r := newRunner(b)
	var last float64
	for i := 0; i < b.N; i++ {
		pts, rep, err := experiments.Figure2With(r, int64(i+1))
		sweepOK(b, rep, err)
		var sum float64
		var n int
		for _, p := range pts {
			if p.FNAccesses == 1 {
				sum += p.Resolution
				n++
			}
		}
		last = sum / float64(n)
	}
	b.ReportMetric(last, "resolution-cycles(N=1)")
}

// BenchmarkFigure3TimingDifference reproduces the no-eviction-set
// difference at one squashed load (paper: ≈22 cycles).
func BenchmarkFigure3TimingDifference(b *testing.B) {
	a := unxpec.MustNew(unxpec.Options{Seed: 1})
	var diff int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		diff = int64(measure(b, a, 1)) - int64(measure(b, a, 0))
	}
	b.ReportMetric(float64(diff), "diff-cycles")
}

// BenchmarkFigure6EvictionSets reproduces the eviction-set difference
// at one squashed load (paper: ≈32 cycles).
func BenchmarkFigure6EvictionSets(b *testing.B) {
	a := unxpec.MustNew(unxpec.Options{Seed: 1, UseEvictionSets: true})
	var diff int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		diff = int64(measure(b, a, 1)) - int64(measure(b, a, 0))
	}
	b.ReportMetric(float64(diff), "diff-cycles")
}

// BenchmarkFigure7PDF reproduces the noisy distribution pair without
// eviction sets and reports the mean difference (paper: ≈22).
func BenchmarkFigure7PDF(b *testing.B) {
	var diff float64
	r := newRunner(b)
	for i := 0; i < b.N; i++ {
		res, rep, err := experiments.Figure7With(r, int64(i+1), 200)
		sweepOK(b, rep, err)
		diff = res.Diff
	}
	b.ReportMetric(diff, "diff-cycles")
}

// BenchmarkFigure8PDF reproduces the eviction-set distributions
// (paper: ≈32).
func BenchmarkFigure8PDF(b *testing.B) {
	var diff float64
	r := newRunner(b)
	for i := 0; i < b.N; i++ {
		res, rep, err := experiments.Figure8With(r, int64(i+1), 200)
		sweepOK(b, rep, err)
		diff = res.Diff
	}
	b.ReportMetric(diff, "diff-cycles")
}

// BenchmarkFigure9SecretGeneration covers the random-secret source.
func BenchmarkFigure9SecretGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.Figure9(1000, int64(i))
	}
}

// BenchmarkFigure10SecretLeakage reproduces single-sample decoding
// without eviction sets and reports accuracy (paper: 86.7%).
func BenchmarkFigure10SecretLeakage(b *testing.B) {
	var acc float64
	r := newRunner(b)
	for i := 0; i < b.N; i++ {
		res, rep, err := experiments.Figure10With(r, int64(i+1), 300)
		sweepOK(b, rep, err)
		acc = res.Accuracy
	}
	b.ReportMetric(100*acc, "accuracy-%")
}

// BenchmarkFigure11SecretLeakageES reproduces it with eviction sets
// (paper: 91.6%).
func BenchmarkFigure11SecretLeakageES(b *testing.B) {
	var acc float64
	r := newRunner(b)
	for i := 0; i < b.N; i++ {
		res, rep, err := experiments.Figure11With(r, int64(i+1), 300)
		sweepOK(b, rep, err)
		acc = res.Accuracy
	}
	b.ReportMetric(100*acc, "accuracy-%")
}

// BenchmarkLeakageRate reproduces §VI-B (paper: ≈140k samples/s).
func BenchmarkLeakageRate(b *testing.B) {
	var rate float64
	for i := 0; i < b.N; i++ {
		r := experiments.LeakageRate(int64(i+1), 50, false)
		if r.Rounds < 50 {
			b.Fatalf("only %d of 50 attack rounds completed", r.Rounds)
		}
		rate = r.SamplesPerSecond
	}
	b.ReportMetric(rate, "samples/s")
}

// BenchmarkFigure12ConstantTime reproduces the overhead study at a
// reduced scale and reports the const-65 mean (paper: 72.8%).
func BenchmarkFigure12ConstantTime(b *testing.B) {
	var c65 float64
	r := newRunner(b)
	for i := 0; i < b.N; i++ {
		res, rep, err := experiments.Figure12With(r, int64(i+1), 1500)
		sweepOK(b, rep, err)
		c65 = res.MeanOverhead["const-65"]
	}
	b.ReportMetric(100*c65, "const65-overhead-%")
}

// BenchmarkFigure13HostResolution reproduces the host-profile study and
// reports the N=1 mean resolution.
func BenchmarkFigure13HostResolution(b *testing.B) {
	r := newRunner(b)
	var last float64
	for i := 0; i < b.N; i++ {
		pts, rep, err := experiments.Figure13With(r, int64(i+1))
		sweepOK(b, rep, err)
		var sum float64
		var n int
		for _, p := range pts {
			if p.FNAccesses == 1 {
				sum += p.Resolution
				n++
			}
		}
		last = sum / float64(n)
	}
	b.ReportMetric(last, "resolution-cycles(N=1)")
}

// --- Ablation benches (DESIGN.md §5) ---

// BenchmarkAblationRestorationOff measures the channel with restoration
// disabled: invalidation alone must still leak (paper §II-B).
func BenchmarkAblationRestorationOff(b *testing.B) {
	scheme := undo.NewCleanupSpec()
	scheme.RestoreEnabled = false
	a := unxpec.MustNew(unxpec.Options{Seed: 1, UseEvictionSets: true, Scheme: scheme})
	var diff int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		diff = int64(measure(b, a, 1)) - int64(measure(b, a, 0))
	}
	b.ReportMetric(float64(diff), "diff-cycles")
}

// BenchmarkAblationLRUvsRandomL1 compares L1 replacement policies under
// CleanupSpec on the hash_probe workload (the paper mandates random to
// kill replacement-state channels; this measures its performance cost).
func BenchmarkAblationLRUvsRandomL1(b *testing.B) {
	run := func(policy cache.ReplacementPolicy) uint64 {
		cfg := memsys.DefaultConfig(1)
		cfg.L1D.Policy = policy
		w := workload.HashProbe(2000, 2048, 1)
		backing := mem.NewMemory()
		w.Init(backing)
		hier := memsys.MustNew(cfg, backing)
		core := cpu.MustNew(cpu.DefaultConfig(), hier, branch.New(branch.DefaultConfig()),
			undo.NewCleanupSpec(), noise.None{})
		return core.Run(w.Program).Cycles
	}
	var lru, rnd uint64
	for i := 0; i < b.N; i++ {
		lru = run(cache.NewLRU(64, 8))
		rnd = run(cache.NewRandom(int64(i)))
	}
	b.ReportMetric(float64(rnd)/float64(lru), "random/lru-cycles")
}

// BenchmarkAblationConstantTimeStrict measures the strict variant's
// residual leakage: lines left behind when the budget runs out.
func BenchmarkAblationConstantTimeStrict(b *testing.B) {
	var residual float64
	for i := 0; i < b.N; i++ {
		scheme := undo.NewConstantTime(25, undo.Strict)
		a := unxpec.MustNew(unxpec.Options{Seed: int64(i + 1), LoadsInBranch: 8,
			UseEvictionSets: true, Scheme: scheme})
		measure(b, a, 1)
		residual = float64(scheme.Stats().TotalResidual)
	}
	b.ReportMetric(residual, "residual-lines")
}

// BenchmarkAblationIdentityVsRandomizedL2 measures how much harder
// timing-based eviction-set search gets against CEASER-style indexing.
func BenchmarkAblationIdentityVsRandomizedL2(b *testing.B) {
	search := func(mapper cache.IndexMapper) int {
		cfg := memsys.Config{
			L1I:         cache.Config{Name: "l1i", Sets: 16, Ways: 2, HitLatency: 1},
			L1D:         cache.Config{Name: "l1d", Sets: 8, Ways: 4, HitLatency: 2},
			L2:          cache.Config{Name: "l2", Sets: 64, Ways: 8, HitLatency: 16, Mapper: mapper},
			MemLatency:  100,
			MSHREntries: 16,
		}
		h := memsys.MustNew(cfg, mem.NewMemory())
		f := evict.NewFinder(h)
		f.Trials = 3
		pool := evict.Pool(0x100000, 64*8*3)
		if _, err := f.FindEvictionSet(0x50000, pool, 8, evict.L2); err != nil {
			b.Fatal(err)
		}
		return f.Accesses()
	}
	var accesses int
	for i := 0; i < b.N; i++ {
		accesses = search(nil) // identity
	}
	b.ReportMetric(float64(accesses), "timed-loads")
}

// BenchmarkAblationFenceRemoval quantifies why the measurement stage
// fences: without serialization the window is noisier (§V-A, T4).
func BenchmarkAblationFenceRemoval(b *testing.B) {
	// With the fence (the real attack), back-to-back secret-0
	// measurements are identical; the metric reports the spread.
	a := unxpec.MustNew(unxpec.Options{Seed: 1})
	lats := make([]float64, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lats = append(lats, float64(measure(b, a, 0)))
	}
	s := stats.Summarize(lats)
	b.ReportMetric(s.Std, "fenced-std-cycles")
}
