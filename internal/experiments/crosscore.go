package experiments

import (
	"fmt"

	"repro/internal/harness"
	"repro/internal/interference"
	"repro/internal/multicore"
	"repro/internal/undo"
)

// InterferenceRow is one scheme of the speculative-interference study
// (the paper's reference [2], reproduced as an extension).
type InterferenceRow struct {
	Scheme string
	// Diff is the secret-dependent delay from MSHR contention.
	Diff float64
	// Leaks is true when the contention channel is usable.
	Leaks bool
}

// InterferenceStudyWith measures the MSHR-contention channel against
// every defense family, one cell per scheme: it breaks Invisible
// schemes (the paper's premise) and is untouched by rollback-time
// fixes.
func InterferenceStudyWith(r *harness.Runner, seed int64, rounds int) ([]InterferenceRow, *harness.Report, error) {
	mk := []struct {
		name string
		s    func() undo.Scheme
	}{
		{"invisible-lite", func() undo.Scheme { return undo.NewInvisibleLite() }},
		{"unsafe", func() undo.Scheme { return undo.NewUnsafe() }},
		{"cleanupspec", func() undo.Scheme { return undo.NewCleanupSpec() }},
		{"const-80-relaxed", func() undo.Scheme { return undo.NewConstantTime(80, undo.Relaxed) }},
	}
	var cells []harness.Cell
	for _, m := range mk {
		m := m
		cells = append(cells, harness.Cell{
			ID:   m.name,
			Seed: seed,
			Run: func(t *harness.Trial) (any, error) {
				a, err := interference.New(interference.Options{Seed: t.Seed, Scheme: m.s()})
				if err != nil {
					return nil, err
				}
				t.Observe(a.Core())
				var s0, s1 float64
				for r := 0; r < rounds; r++ {
					l0, err := a.MeasureOnceChecked(0)
					if err != nil {
						return nil, err
					}
					l1, err := a.MeasureOnceChecked(1)
					if err != nil {
						return nil, err
					}
					s0 += float64(l0)
					s1 += float64(l1)
				}
				d := (s1 - s0) / float64(rounds)
				return InterferenceRow{Scheme: m.name, Diff: d, Leaks: d >= 8}, nil
			},
		})
	}
	return sweepCollect[InterferenceRow](r, "interference", cells)
}

// CrossCoreRow is one configuration of the cross-core probing study.
type CrossCoreRow struct {
	Machine      string
	Secret       int
	Probes       int
	FastReloads  int
	DummyMisses  uint64
	VictimSquash uint64
	Leaks        bool
}

// CrossCoreStudyWith runs the §II-B scenario matrix: {unsafe,
// CleanupSpec} × {secret 0, secret 1}, a concurrent Flush+Reload prober
// against the victim's speculation window through the shared L2, one
// cell per machine × secret. Lockstep watchdog trips inside
// multicore.CrossCoreProbe arrive wrapped around cpu.ErrWatchdog and
// classify as timeouts.
func CrossCoreStudyWith(r *harness.Runner, seed int64, rounds, probes int) ([]CrossCoreRow, *harness.Report, error) {
	type machine struct {
		name string
		cfg  func(int64) multicore.Config
	}
	var cells []harness.Cell
	for _, m := range []machine{
		{"unsafe", multicore.NewUnsafeCrossCfg},
		{"cleanupspec", multicore.NewProtectedCrossCfg},
	} {
		for secret := 0; secret <= 1; secret++ {
			m, secret := m, secret
			cells = append(cells, harness.Cell{
				ID:   fmt.Sprintf("%s-s%d", m.name, secret),
				Seed: seed,
				Run: func(t *harness.Trial) (any, error) {
					res, err := multicore.CrossCoreProbe(m.cfg(t.Seed), secret, rounds, probes)
					if err != nil {
						return nil, err
					}
					return CrossCoreRow{
						Machine:      m.name,
						Secret:       secret,
						Probes:       len(res.Latencies),
						FastReloads:  res.FastReloads,
						DummyMisses:  res.DummyMisses,
						VictimSquash: res.VictimSquash,
						Leaks:        res.Hit(),
					}, nil
				},
			})
		}
	}
	return sweepCollect[CrossCoreRow](r, "crosscore", cells)
}
