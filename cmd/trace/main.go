// Command trace runs one unXpec measurement round with pipeline tracing
// attached and renders the event log and timeline — the paper's
// Figure 1 (T1 speculation start … T6 cleanup done), observable.
//
// With -chrome the same events are exported in Chrome trace-event JSON:
// open the file in Perfetto (ui.perfetto.dev) or chrome://tracing to
// scrub through the speculation window visually.
//
// Usage:
//
//	trace [-secret 0|1] [-evict] [-loads N] [-timeline] [-chrome FILE]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cpu"
	"repro/internal/trace"
	"repro/internal/unxpec"
)

func main() {
	var (
		secret   = flag.Int("secret", 1, "secret bit to transmit (0 or 1)")
		useEvict = flag.Bool("evict", false, "use eviction sets")
		loads    = flag.Int("loads", 1, "transient loads in the branch")
		timeline = flag.Bool("timeline", true, "render the per-instruction timeline")
		chrome   = flag.String("chrome", "", "write the round as Chrome trace-event JSON (Perfetto / chrome://tracing)")
	)
	flag.Parse()

	attack, err := unxpec.New(unxpec.Options{
		Seed:            1,
		LoadsInBranch:   *loads,
		UseEvictionSets: *useEvict,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
		os.Exit(2)
	}

	// Warm up: one untraced round trains the predictor and caches.
	if _, err := attack.MeasureOnceChecked(*secret); err != nil {
		fmt.Fprintln(os.Stderr, "trace: warm-up round:", err)
		os.Exit(1)
	}

	buf := trace.NewBuffer()
	attack.Core().SetTracer(buf)
	lat, err := attack.MeasureOnceChecked(*secret)
	attack.Core().SetTracer(nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "trace: traced round:", err)
		os.Exit(1)
	}
	res, clean := attack.LastSquashStats()

	fmt.Printf("secret=%d: observed latency %d cycles (resolution %d, cleanup stall %d)\n\n",
		*secret, lat, res, clean)

	fmt.Println("pipeline events of the measurement round (squash & cleanup):")
	sel := trace.NewBuffer()
	sel.KindFilter = map[cpu.Kind]bool{
		cpu.KindSquash: true, cpu.KindCleanup: true, cpu.KindResolve: true,
	}
	for _, ev := range buf.Events() {
		sel.Event(ev)
	}
	sel.Render(os.Stdout)

	if *timeline {
		fmt.Println("\ninstruction timeline (F=fetch I=issue R=retire), last attack kernel:")
		fmt.Print(tail(buf))
	}

	if *chrome != "" {
		f, err := os.Create(*chrome)
		if err != nil {
			fmt.Fprintln(os.Stderr, "trace:", err)
			os.Exit(1)
		}
		if err := trace.WriteChrome(f, buf.Events()); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "trace:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "trace:", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s — open in ui.perfetto.dev or chrome://tracing\n", *chrome)
	}
}

// tail renders the timeline of the final (measurement) program only by
// re-filtering events after the last big fetch-PC reset.
func tail(buf *trace.Buffer) string {
	evs := buf.Events()
	// Find the last fetch of PC 0 (program start) and keep from there.
	start := 0
	for i, ev := range evs {
		if ev.Kind == cpu.KindFetch && ev.PC == 0 {
			start = i
		}
	}
	out := trace.NewBuffer()
	for _, ev := range evs[start:] {
		out.Event(ev)
	}
	return out.Timeline(40)
}
