// Command figures regenerates every table and figure of the paper's
// evaluation section and writes the series to results/*.csv alongside a
// console summary with paper-vs-measured values.
//
// Every sweep runs on internal/harness: a bounded worker pool with
// panic containment, watchdog escalation, retry/backoff and an optional
// JSONL journal. A failed cell becomes a recorded gap — the remaining
// figures still render — and an interrupted campaign (-stop-after, or a
// real kill with -journal) resumes with -resume, skipping completed
// cells.
//
// Usage:
//
//	figures [-fig N|table1|rate|crosscore|sensitivity|interference|
//	         minconst|mitigation|all] [-out DIR] [-seed S] [-samples N]
//	        [-bits N] [-scale N] [-plot]
//	        [-jobs N] [-retries N] [-trial-timeout D]
//	        [-journal FILE] [-resume] [-stop-after N] [-inject SPEC]
//	        [-metrics FILE] [-debug-addr ADDR]
//
// With -metrics, the rollup's harness_trial_latency_ms exemplar names
// the slowest cell; with -journal, that cell's record (seed, attempts,
// class, elapsed time, telemetry snapshot) is the line whose "cell"
// key matches.
//
// Exit codes follow the harness taxonomy: 0 ok, 1 infrastructure,
// 2 usage, 3 timeout gaps, 4 panic gaps, 5 other gaps (or a failed
// minconst or rate measurement, which run outside the harness),
// 6 interrupted (resumable).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/plot"
	"repro/internal/telemetry"
)

func main() {
	var (
		fig     = flag.String("fig", "all", "which figure to regenerate: 2,3,6,7,8,9,10,11,12,13,table1,rate,crosscore,sensitivity,interference,minconst,mitigation,all")
		out     = flag.String("out", "results", "output directory for CSV series")
		seed    = flag.Int64("seed", 42, "experiment seed")
		samples = flag.Int("samples", 1000, "samples per secret for figures 7/8")
		bits    = flag.Int("bits", 1000, "secret bits for figures 9/10/11")
		scale   = flag.Int("scale", 10000, "workload scale for figure 12")
		ascii   = flag.Bool("plot", false, "also render ASCII charts of the figures")

		jobs      = flag.Int("jobs", 0, "parallel trial workers (0 = GOMAXPROCS)")
		retries   = flag.Int("retries", 0, "attempt budget per cell (0 = harness default of 3)")
		trialTmo  = flag.Duration("trial-timeout", 0, "wall-clock deadline per trial attempt (0 = none)")
		journal   = flag.String("journal", "", "JSONL run journal (enables -resume)")
		resume    = flag.Bool("resume", false, "skip cells with a terminal record in -journal")
		stopAfter = flag.Int("stop-after", 0, "interrupt the campaign after N executed trials (deterministic kill, for CI)")
		inject    = flag.String("inject", "", "fault injections: kind:glob[:attempts],... (kinds: panic, hang)")
		metrics   = flag.String("metrics", "", "write the campaign telemetry rollup to this JSON file")
		debugAddr = flag.String("debug-addr", "", "serve live progress/metrics/pprof on this address (e.g. 127.0.0.1:8070)")
	)
	flag.Parse()

	injs, err := harness.ParseInjections(*inject)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(harness.ExitUsage)
	}
	var registry *telemetry.Registry
	if *metrics != "" || *debugAddr != "" {
		registry = telemetry.NewRegistry()
	}
	campaignStart := time.Now() //simlint:wallclock campaign throughput is genuine wall time
	runner, err := harness.New(harness.Config{
		Workers:      *jobs,
		MaxAttempts:  *retries,
		TrialTimeout: *trialTmo,
		JournalPath:  *journal,
		Resume:       *resume,
		StopAfter:    *stopAfter,
		Injections:   injs,
		Metrics:      registry,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(harness.ExitUsage)
	}
	if *debugAddr != "" {
		dbg, err := runner.ServeDebug(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(harness.ExitUsage)
		}
		defer dbg.Close()
		fmt.Printf("debug endpoint: %s (/progress /metrics /debug/vars /debug/pprof/)\n", dbg.URL())
	}

	var (
		reports    []*harness.Report
		infraErr   bool
		saveErr    bool
		measureErr bool // a measurement outside the harness failed
	)
	// note records a sweep's report for the final exit code and prints
	// its gaps; it returns true when every cell produced a value.
	note := func(rep *harness.Report, err error) bool {
		if rep != nil {
			reports = append(reports, rep)
			for _, f := range rep.Failures() {
				fmt.Fprintf(os.Stderr, "  GAP %s [%s, attempt %d]: %s\n", f.Cell, f.Class, f.Attempt, f.Msg)
				if f.Post != nil {
					fmt.Fprintf(os.Stderr, "      post-mortem: cycle=%d retired=%d rob=%d inflight=%d squashes=%d\n",
						f.Post.Cycle, f.Post.Retired, f.Post.ROBOccupancy, f.Post.InflightLoads, f.Post.Squashes)
				}
			}
			if rep.Interrupted {
				fmt.Fprintf(os.Stderr, "  sweep %q interrupted after %d/%d cells — rerun with -resume to finish\n",
					rep.Name, rep.Completed(), len(rep.Outcomes))
			}
			return err == nil && !rep.Interrupted && len(rep.Failures()) == 0
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			infraErr = true
		}
		return err == nil
	}

	run := func(name string) bool { return *fig == "all" || *fig == name }
	csvPath := func(name string) string { return filepath.Join(*out, name+".csv") }
	// save writes atomically and aggregates failures instead of
	// aborting: one unwritable file must not lose the rest of the run.
	save := func(name string, rows [][]string, complete bool) {
		if err := experiments.WriteCSV(csvPath(name), rows); err != nil {
			fmt.Fprintf(os.Stderr, "figures: writing %s: %v\n", name, err)
			saveErr = true
			return
		}
		if complete {
			fmt.Printf("  wrote %s\n", csvPath(name))
		} else {
			fmt.Printf("  wrote %s (PARTIAL — campaign has gaps or was interrupted)\n", csvPath(name))
		}
	}

	if run("table1") {
		fmt.Println("== Table I: experiment setup ==")
		rows := experiments.TableI()
		experiments.PrintTable(os.Stdout, experiments.TableICSV(rows))
		save("table1", experiments.TableICSV(rows), true)
	}

	if run("2") {
		fmt.Println("\n== Figure 2: branch resolution time (simulator) ==")
		pts, rep, err := experiments.Figure2With(runner, *seed)
		ok := note(rep, err)
		summarizeResolution(pts)
		save("figure2", experiments.ResolutionCSV(pts), ok)
	}

	if run("3") {
		fmt.Println("\n== Figure 3: timing difference vs squashed loads (no eviction sets) ==")
		pts, rep, err := experiments.Figure3With(runner, *seed)
		ok := note(rep, err)
		for _, p := range pts {
			fmt.Printf("  %d loads: %.1f cycles\n", p.Loads, p.Diff)
		}
		fmt.Println("  paper: ≈22 cycles at 1 load, shallow growth to ≈25")
		if *ascii {
			fmt.Print(diffPlot("Figure 3 (no eviction sets)", pts))
		}
		save("figure3", experiments.DiffCSV(pts), ok)
	}

	if run("6") {
		fmt.Println("\n== Figure 6: timing difference with eviction sets ==")
		pts, rep, err := experiments.Figure6With(runner, *seed)
		ok := note(rep, err)
		for _, p := range pts {
			fmt.Printf("  %d loads: %.1f cycles\n", p.Loads, p.Diff)
		}
		fmt.Println("  paper: ≈32 cycles at 1 load, growing to ≈64")
		if *ascii {
			fmt.Print(diffPlot("Figure 6 (eviction sets)", pts))
		}
		save("figure6", experiments.DiffCSV(pts), ok)
	}

	if run("7") {
		fmt.Println("\n== Figure 7: latency PDF, no eviction sets ==")
		r, rep, err := experiments.Figure7With(runner, *seed, *samples)
		if note(rep, err) {
			fmt.Printf("  mean0=%.1f mean1=%.1f diff=%.1f threshold=%.0f (paper: diff≈22, threshold 178)\n",
				r.Mean0, r.Mean1, r.Diff, r.Threshold)
			if *ascii {
				fmt.Print(pdfPlot("Figure 7 PDFs (0=secret0, 1=secret1)", r))
			}
			save("figure7", experiments.PDFCSV(r), true)
		}
	}

	if run("8") {
		fmt.Println("\n== Figure 8: latency PDF, with eviction sets ==")
		r, rep, err := experiments.Figure8With(runner, *seed, *samples)
		if note(rep, err) {
			fmt.Printf("  mean0=%.1f mean1=%.1f diff=%.1f threshold=%.0f (paper: diff≈32, threshold 183)\n",
				r.Mean0, r.Mean1, r.Diff, r.Threshold)
			if *ascii {
				fmt.Print(pdfPlot("Figure 8 PDFs (0=secret0, 1=secret1)", r))
			}
			save("figure8", experiments.PDFCSV(r), true)
		}
	}

	if run("9") {
		fmt.Println("\n== Figure 9: random secret bit pattern ==")
		bitsv := experiments.Figure9(*bits, *seed)
		ones := 0
		for _, b := range bitsv {
			ones += b
		}
		fmt.Printf("  %d bits, %d ones\n", len(bitsv), ones)
		save("figure9", experiments.BitsCSV(bitsv), true)
	}

	if run("10") {
		fmt.Println("\n== Figure 10: secret leakage, no eviction sets ==")
		r, rep, err := experiments.Figure10With(runner, *seed, *bits)
		if note(rep, err) {
			fmt.Printf("  accuracy %.1f%% over %d bits, threshold %.0f (paper: 86.7%%)\n",
				100*r.Accuracy, len(r.Guesses), r.Threshold)
			if *ascii {
				fmt.Print(leakPlot("Figure 10 observed latencies (o=secret0, x=secret1)", r))
			}
			save("figure10", experiments.LeakageCSV(r), true)
		}
	}

	if run("11") {
		fmt.Println("\n== Figure 11: secret leakage, with eviction sets ==")
		r, rep, err := experiments.Figure11With(runner, *seed, *bits)
		if note(rep, err) {
			fmt.Printf("  accuracy %.1f%% over %d bits, threshold %.0f (paper: 91.6%%)\n",
				100*r.Accuracy, len(r.Guesses), r.Threshold)
			if *ascii {
				fmt.Print(leakPlot("Figure 11 observed latencies (o=secret0, x=secret1)", r))
			}
			save("figure11", experiments.LeakageCSV(r), true)
		}
	}

	if run("rate") {
		fmt.Println("\n== §VI-B: leakage rate ==")
		const rounds = 200
		for _, es := range []bool{false, true} {
			r := experiments.LeakageRate(*seed, rounds, es)
			if r.Rounds < rounds {
				fmt.Fprintf(os.Stderr, "  FAILED rate (eviction sets %v): only %d of %d attack rounds completed\n", es, r.Rounds, rounds)
				measureErr = true
				continue
			}
			fmt.Printf("  eviction sets %-5v: %.0f samples/s ≈ %.0f Kbps at 1 sample/bit (paper: ≈140 Kbps)\n",
				es, r.SamplesPerSecond, r.BitsPerSecond/1000)
		}
	}

	if run("12") {
		fmt.Println("\n== Figure 12: constant-time rollback overhead ==")
		r, rep, err := experiments.Figure12With(runner, *seed, *scale)
		ok := note(rep, err)
		experiments.PrintTable(os.Stdout, experiments.Figure12CSV(r))
		fmt.Printf("  paper averages: no-const ≈5%%, const-25 22.4%%, const-65 72.8%%\n")
		if *ascii {
			var labels []string
			var vals []float64
			for _, s := range r.Schemes {
				labels = append(labels, s)
				vals = append(vals, r.MeanOverhead[s])
			}
			fmt.Print(plot.Bars("Figure 12 mean overhead vs unsafe baseline", labels, vals, 50))
		}
		save("figure12", experiments.Figure12CSV(r), ok)
	}

	if run("13") {
		fmt.Println("\n== Figure 13: branch resolution on the host-CPU profile ==")
		pts, rep, err := experiments.Figure13With(runner, *seed)
		ok := note(rep, err)
		summarizeResolution(pts)
		save("figure13", experiments.ResolutionCSV(pts), ok)
	}

	if run("crosscore") {
		fmt.Println("\n== Extension: cross-core probing of the speculation window (§II-B) ==")
		rows, rep, err := experiments.CrossCoreStudyWith(runner, *seed, 800, 350)
		ok := note(rep, err)
		for _, r := range rows {
			verdict := "safe"
			if r.Leaks {
				verdict = "LEAKS"
			}
			fmt.Printf("  %-12s secret=%d: %3d/%3d fast reloads, %2d dummy misses, %d victim squashes → %s\n",
				r.Machine, r.Secret, r.FastReloads, r.Probes, r.DummyMisses, r.VictimSquash, verdict)
		}
		save("crosscore", experiments.CrossCoreCSV(rows), ok)
	}

	if run("sensitivity") {
		fmt.Println("\n== Extension: sensitivity studies ==")
		fmt.Println("noise robustness (single-sample calibration accuracy):")
		nr, rep, err := experiments.NoiseRobustnessWith(runner, *seed, []float64{2, 5, 10, 15, 25}, 150)
		ok := note(rep, err)
		for _, p := range nr {
			fmt.Printf("  σ=%4.1f: accuracy %.3f without ES, %.3f with ES\n",
				p.Sigma, p.Accuracy, p.AccuracyES)
		}
		save("sensitivity_noise", experiments.NoiseCSV(nr), ok)
		fmt.Println("rollback-pipeline sensitivity (single-load diff, eviction sets):")
		lm, rep, err := experiments.LatencyModelSensitivityWith(runner, *seed, []int{8, 16, 24}, []int{5, 10, 20})
		note(rep, err)
		for _, p := range lm {
			fmt.Printf("  invFirst=%2d restoreFirst=%2d: diff %.1f cycles\n",
				p.InvFirst, p.RestoreFirst, p.Diff)
		}
	}

	if run("interference") {
		fmt.Println("\n== Extension: speculative interference ([2]) vs every defense family ==")
		rows, rep, err := experiments.InterferenceStudyWith(runner, *seed, 5)
		ok := note(rep, err)
		for _, r := range rows {
			verdict := "safe"
			if r.Leaks {
				verdict = "LEAKS"
			}
			fmt.Printf("  %-18s MSHR-contention delay %5.1f cycles → %s\n", r.Scheme, r.Diff, verdict)
		}
		save("interference", experiments.InterferenceCSV(rows), ok)
		fmt.Println("  contention channels survive both state hiding and rollback fixes —")
		fmt.Println("  the landscape that motivates the paper's closing call for new designs.")
	}

	if run("minconst") {
		fmt.Println("\n== Extension: minimal safe constant vs attacker strength (§VI-E) ==")
		mc, err := experiments.MinimalSafeConstantChecked(*seed, 8, 0.01)
		if err != nil {
			fmt.Fprintf(os.Stderr, "  FAILED minconst after %d point(s): %v\n", len(mc), err)
			measureErr = true
		}
		for _, p := range mc {
			fmt.Printf("  %d load(s): worst-case rollback %2d cycles → minimal closing constant %2d (≈%.0f%% overhead)\n",
				p.Loads, p.WorstStall, p.MinSafeConst, 100*p.OverheadAtConst)
		}
		save("minconst", experiments.MinConstCSV(mc), err == nil)
		fmt.Println("  the defender must budget for the strongest attacker — the paper's point")
		fmt.Println("  that choosing the constant is hard (§VI-E).")
	}

	if run("mitigation") {
		fmt.Println("\n== Extension: mitigation study (constant-time vs fuzzy-time) ==")
		pts, rep, err := experiments.MitigationStudyWith(runner, *seed, *scale/4, 16)
		note(rep, err)
		for _, p := range pts {
			fmt.Printf("  %-18s residual channel %.1f cycles, mean overhead %.1f%%\n",
				p.Scheme, p.ResidualDiff, 100*p.MeanOverhead)
		}
	}

	// Wall-clock throughput: simulated cycles per second across the whole
	// campaign, from the cpu_cycles_total rollup. Printed in the summary
	// and recorded as a gauge in the -metrics file, so BENCH-style
	// throughput trajectories are recoverable from campaign journals
	// (docs/PERFORMANCE.md).
	if registry != nil {
		elapsed := time.Since(campaignStart).Seconds() //simlint:wallclock campaign throughput is genuine wall time
		cycles := registry.Counter("cpu_cycles_total", "simulated cycles advanced, including fast-forwarded ones").Value()
		if cycles > 0 && elapsed > 0 {
			rate := float64(cycles) / elapsed
			registry.Gauge("campaign_sim_cycles_per_s", "simulated cycles per wall-clock second over the campaign").Set(rate)
			fmt.Printf("  campaign: %d simulated cycles in %.1fs wall — %.3g cycles/s\n",
				cycles, elapsed, rate)
		}
	}
	if *metrics != "" {
		if err := writeMetrics(*metrics, registry); err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			saveErr = true
		} else {
			fmt.Printf("  wrote %s (campaign telemetry rollup)\n", *metrics)
		}
	}
	// Surface torn/corrupt journal lines survived during -resume: the
	// affected cells were re-executed, but the operator should know the
	// journal took damage (typically a crash mid-append).
	for _, warn := range runner.JournalWarnings() {
		fmt.Fprintln(os.Stderr, "figures: journal:", warn)
	}
	if err := runner.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "figures: closing journal:", err)
		infraErr = true
	}
	os.Exit(campaignExit(reports, measureErr, infraErr, saveErr))
}

// writeMetrics dumps the campaign registry rollup as indented JSON.
func writeMetrics(path string, reg *telemetry.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WriteJSON(f, reg.Snapshot()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// campaignExit folds every sweep report into one exit code: an
// interrupted (resumable) campaign wins, then the worst failure class
// (a failed measurement outside the harness counts as ExitError), then
// infrastructure problems, then 0.
func campaignExit(reports []*harness.Report, measureErr, infraErr, saveErr bool) int {
	rank := func(code int) int {
		switch code {
		case harness.ExitPanic:
			return 3
		case harness.ExitTimeout:
			return 2
		case harness.ExitError:
			return 1
		}
		return 0
	}
	code := harness.ExitOK
	if measureErr {
		code = harness.ExitError
	}
	gaps := 0
	for _, rep := range reports {
		c := rep.ExitCode()
		if c == harness.ExitInterrupted {
			return harness.ExitInterrupted
		}
		if rank(c) > rank(code) {
			code = c
		}
		gaps += len(rep.Failures())
	}
	if gaps > 0 {
		fmt.Fprintf(os.Stderr, "figures: campaign finished with %d gap(s)\n", gaps)
	}
	if code == harness.ExitOK && (infraErr || saveErr) {
		return harness.ExitInfra
	}
	return code
}

// diffPlot renders a Figure 3/6 series as an ASCII line chart.
func diffPlot(title string, pts []experiments.DiffPoint) string {
	xs := make([]float64, len(pts))
	ys := make([]float64, len(pts))
	for i, p := range pts {
		xs[i] = float64(p.Loads)
		ys[i] = p.Diff
	}
	return plot.Curves(title, "squashed loads", "timing difference (cycles)",
		xs, map[rune][]float64{'*': ys}, 64, 12)
}

// pdfPlot renders a Figure 7/8 KDE pair.
func pdfPlot(title string, r experiments.PDFResult) string {
	return plot.Curves(title, "observed latency (cycles)", "density",
		r.Xs, map[rune][]float64{'0': r.Density0, '1': r.Density1}, 90, 14)
}

// leakPlot renders the first 200 bits of a Figure 10/11 run as a
// scatter split by true secret value.
func leakPlot(title string, r experiments.LeakageResult) string {
	classes := map[rune][][2]float64{'o': nil, 'x': nil}
	n := len(r.Latencies)
	if n > 200 {
		n = 200
	}
	for i := 0; i < n; i++ {
		g := 'o'
		if r.Truth[i] == 1 {
			g = 'x'
		}
		classes[g] = append(classes[g], [2]float64{float64(i), float64(r.Latencies[i])})
	}
	return plot.Scatter(title, "bit index", "observed latency (cycles)", classes, 100, 16)
}

func summarizeResolution(pts []experiments.ResolutionPoint) {
	for n := 1; n <= 3; n++ {
		var sum float64
		var count int
		for _, p := range pts {
			if p.FNAccesses == n {
				sum += p.Resolution
				count++
			}
		}
		if count > 0 {
			fmt.Printf("  N=%d: mean resolution %.0f cycles across loads×secrets\n", n, sum/float64(count))
		}
	}
}
