// Command report reruns the paper's entire evaluation and scores every
// headline quantity against its acceptance band — the repository's
// one-shot artifact evaluation. Exit status is nonzero if any band
// fails or any measurement behind a band fails (a failed sweep cell,
// a watchdog trip), so CI can gate on reproduction fidelity. The whole evaluation
// runs with a campaign telemetry registry attached; the machine-level
// rollup (squash counts, rollback-stall mode, cache traffic) is
// rendered as a metrics table after the band table.
//
// Usage:
//
//	report [-seed S] [-o FILE] [-no-metrics]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/telemetry"
)

func main() {
	var (
		seed      = flag.Int64("seed", 42, "experiment seed")
		out       = flag.String("o", "", "also write the markdown report to this file")
		noMetrics = flag.Bool("no-metrics", false, "skip the campaign metrics table")
	)
	flag.Parse()

	var reg *telemetry.Registry
	if !*noMetrics {
		reg = telemetry.NewRegistry()
	}
	runner, err := harness.New(harness.Config{Metrics: reg})
	if err != nil {
		fmt.Fprintln(os.Stderr, "report:", err)
		os.Exit(1)
	}

	fmt.Println("Rerunning the unXpec evaluation against the paper's bands...")
	bands, err := experiments.ReproductionReportWith(runner, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "report: measurement failed, no band scored:", err)
		os.Exit(1)
	}

	var sinks []io.Writer = []io.Writer{os.Stdout}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "report:", err)
			os.Exit(1)
		}
		defer f.Close()
		sinks = append(sinks, f)
	}
	failures := 0
	for _, w := range sinks {
		failures = experiments.RenderReport(w, bands)
		if reg != nil {
			fmt.Fprintf(w, "\n## Campaign telemetry\n\n")
			experiments.RenderMetricsTable(w, reg.Snapshot())
		}
	}
	if failures > 0 {
		fmt.Printf("\n%d/%d checks FAILED\n", failures, len(bands))
		os.Exit(1)
	}
	fmt.Printf("\nall %d checks passed — reproduction is faithful at seed %d\n", len(bands), *seed)
}
