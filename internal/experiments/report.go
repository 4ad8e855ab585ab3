package experiments

import (
	"fmt"
	"io"

	"repro/internal/harness"
	"repro/internal/telemetry"
)

// Band is one reproduction check: a measured quantity, the paper's
// reported value, and the acceptance band the measurement must fall in
// for the reproduction to count as faithful (shape fidelity — see
// EXPERIMENTS.md for why the bands are where they are).
type Band struct {
	ID       string
	Quantity string
	Paper    string
	Measured float64
	Lo, Hi   float64
	Unit     string
}

// Pass reports whether the measurement lies in the band.
func (b Band) Pass() bool { return b.Measured >= b.Lo && b.Measured <= b.Hi }

// ReproductionReport reruns the evaluation and scores every headline
// quantity against its acceptance band. quick reduces sample counts and
// workload scale (about a quarter of the full run time); the bands are
// identical.
func ReproductionReport(seed int64, quick bool) []Band {
	return ReproductionReportWith(nil, seed, quick)
}

// ReproductionReportWith is ReproductionReport on an explicit harness
// runner, so the caller can attach a journal, a campaign metrics
// registry or a debug endpoint to the whole evaluation. A nil runner
// falls back to harness.Default().
func ReproductionReportWith(r *harness.Runner, seed int64, quick bool) []Band {
	samples, bits, scale := 1000, 1000, 10_000
	if quick {
		samples, bits, scale = 200, 300, 2_500
	}

	var bands []Band
	add := func(id, quantity, paper string, measured, lo, hi float64, unit string) {
		bands = append(bands, Band{ID: id, Quantity: quantity, Paper: paper,
			Measured: measured, Lo: lo, Hi: hi, Unit: unit})
	}

	// Figure 2: resolution constant in loads/secret, linear in N.
	f2, _, _ := Figure2With(r, seed)
	meanRes := func(pts []ResolutionPoint, n int) float64 {
		var sum float64
		var cnt int
		for _, p := range pts {
			if p.FNAccesses == n {
				sum += p.Resolution
				cnt++
			}
		}
		return sum / float64(cnt)
	}
	add("fig2", "resolution growth per f(N) access", "≈1 memory RT",
		meanRes(f2, 2)-meanRes(f2, 1), 100, 140, "cycles")

	// Figures 3/6.
	f3, _, _ := Figure3With(r, seed)
	add("fig3", "timing difference, 1 load, no eviction sets", "22",
		f3[0].Diff, 20, 24, "cycles")
	add("fig3b", "timing difference growth to 8 loads", "shallow (≈25)",
		f3[7].Diff, f3[0].Diff, f3[0].Diff+8, "cycles")
	f6, _, _ := Figure6With(r, seed)
	add("fig6", "timing difference, 1 load, eviction sets", "32",
		f6[0].Diff, 30, 34, "cycles")
	add("fig6b", "timing difference, 8 loads, eviction sets", "≈64",
		f6[7].Diff, 55, 75, "cycles")

	// Figures 7/8 under noise.
	f7, _, _ := Figure7With(r, seed, samples)
	add("fig7", "mean latency difference (noisy), no ES", "≈22",
		f7.Diff, 18, 27, "cycles")
	f8, _, _ := Figure8With(r, seed, samples)
	add("fig8", "mean latency difference (noisy), ES", "≈32",
		f8.Diff, 28, 37, "cycles")

	// Figures 10/11.
	f10, _, _ := Figure10With(r, seed, bits)
	add("fig10", "single-sample accuracy, no ES", "86.7%",
		100*f10.Accuracy, 80, 93, "%")
	f11, _, _ := Figure11With(r, seed, bits)
	add("fig11", "single-sample accuracy, ES", "91.6%",
		100*f11.Accuracy, 87, 98, "%")
	add("fig11>10", "ES accuracy advantage", ">0",
		100*(f11.Accuracy-f10.Accuracy), 0.01, 100, "pp")

	// §VI-B rate.
	rate := LeakageRate(seed, 100, false)
	add("rate", "leakage rate @ 2 GHz", "≈140 Kbps",
		rate.SamplesPerSecond/1000, 100, 200, "Kbps")

	// Figure 12.
	f12, _, _ := Figure12With(r, seed, scale)
	add("fig12a", "CleanupSpec overhead (no constant)", "≈5%",
		100*f12.MeanOverhead["no-const"], 0, 12, "%")
	add("fig12b", "const-25 mean overhead", "22.4%",
		100*f12.MeanOverhead["const-25"], 15, 35, "%")
	add("fig12c", "const-65 mean overhead", "72.8%",
		100*f12.MeanOverhead["const-65"], 50, 95, "%")

	// Figure 13 host profile: still linear in N under noise.
	f13, _, _ := Figure13With(r, seed)
	add("fig13", "host-profile resolution growth per access", "linear, noisy",
		meanRes(f13, 2)-meanRes(f13, 1), 100, 300, "cycles")

	return bands
}

// RenderReport writes a markdown summary and returns how many bands
// failed.
func RenderReport(w io.Writer, bands []Band) (failures int) {
	fmt.Fprintf(w, "| check | quantity | paper | measured | band | verdict |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|---|\n")
	for _, b := range bands {
		verdict := "PASS"
		if !b.Pass() {
			verdict = "FAIL"
			failures++
		}
		fmt.Fprintf(w, "| %s | %s | %s | %.1f %s | [%.1f, %.1f] | %s |\n",
			b.ID, b.Quantity, b.Paper, b.Measured, b.Unit, b.Lo, b.Hi, verdict)
	}
	return failures
}

// RenderMetricsTable writes a campaign telemetry snapshot as a markdown
// table: counters and gauges with their values, histograms summarized
// as count/mean/mode (the mode of undo_rollback_stall_cycles is the
// paper's Rd — ≈69 cycles on the default machine).
func RenderMetricsTable(w io.Writer, s telemetry.Snapshot) {
	if s.Empty() {
		fmt.Fprintln(w, "(no campaign metrics recorded)")
		return
	}
	fmt.Fprintf(w, "| metric | value | help |\n")
	fmt.Fprintf(w, "|---|---|---|\n")
	for _, name := range s.Names() {
		switch {
		case hasKey(s.Counters, name):
			fmt.Fprintf(w, "| %s | %d | %s |\n", name, s.Counters[name], s.Help[name])
		case hasKey(s.Gauges, name):
			fmt.Fprintf(w, "| %s | %.3g | %s |\n", name, s.Gauges[name], s.Help[name])
		default:
			h := s.Histograms[name]
			ex := ""
			if h.Exemplar != nil {
				// The exemplar links the histogram's worst observation
				// to its cell's journal record.
				ex = fmt.Sprintf(" worst=%.0f@%s", h.Exemplar.Value, h.Exemplar.Cell)
			}
			fmt.Fprintf(w, "| %s | n=%d mean=%.1f mode≤%.0f%s | %s |\n",
				name, h.Count, h.Mean(), h.Mode(), ex, s.Help[name])
		}
	}
}

// hasKey avoids the zero-value ambiguity of map lookups in the
// mixed-type dispatch above.
func hasKey[V any](m map[string]V, k string) bool {
	_, ok := m[k]
	return ok
}
