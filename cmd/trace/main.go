// Command trace runs one unXpec measurement round with pipeline tracing
// attached and renders the event log and timeline — the paper's
// Figure 1 (T1 speculation start … T6 cleanup done), observable.
//
// With -chrome the same events are exported in Chrome trace-event JSON:
// open the file in Perfetto (ui.perfetto.dev) or chrome://tracing to
// scrub through the speculation window visually.
//
// With -spans FILE the command instead renders a span file (the JSON
// array written by `figures -trace-out`) as an indented causal tree.
//
// Usage:
//
//	trace [-secret 0|1] [-evict] [-loads N] [-timeline] [-chrome FILE]
//	trace -spans FILE [-span-trace ID]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cpu"
	"repro/internal/teletrace"
	"repro/internal/trace"
	"repro/internal/unxpec"
)

func main() {
	var (
		secret    = flag.Int("secret", 1, "secret bit to transmit (0 or 1)")
		useEvict  = flag.Bool("evict", false, "use eviction sets")
		loads     = flag.Int("loads", 1, "transient loads in the branch")
		timeline  = flag.Bool("timeline", true, "render the per-instruction timeline")
		chrome    = flag.String("chrome", "", "write the round as Chrome trace-event JSON (Perfetto / chrome://tracing)")
		spansFile = flag.String("spans", "", "render a span file (figures -trace-out) as a causal tree instead of running a round")
		spanTrace = flag.String("span-trace", "", "with -spans: only render this trace ID")
	)
	flag.Parse()

	if *spansFile != "" {
		if err := renderSpans(*spansFile, *spanTrace); err != nil {
			fmt.Fprintln(os.Stderr, "trace:", err)
			os.Exit(1)
		}
		return
	}

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
	attack.MeasureOnce(*secret)

	buf := trace.NewBuffer(0)
	attack.Core().SetTracer(buf)
	lat := attack.MeasureOnce(*secret)
	attack.Core().SetTracer(nil)
	res, clean := attack.LastSquashStats()

	fmt.Printf("secret=%d: observed latency %d cycles (resolution %d, cleanup stall %d)\n\n",
		*secret, lat, res, clean)

	fmt.Println("pipeline events of the measurement round (squash & cleanup):")
	sel := trace.NewBuffer(0)
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

// renderSpans reads a span file and writes its causal trees to
// stdout, optionally filtered to one trace ID.
func renderSpans(path, traceID string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	spans, err := teletrace.ReadSpans(f)
	if err != nil {
		return err
	}
	if traceID != "" {
		id, err := teletrace.ParseTraceID(traceID)
		if err != nil {
			return err
		}
		kept := spans[:0]
		for _, d := range spans {
			if d.Trace == id {
				kept = append(kept, d)
			}
		}
		spans = kept
	}
	if len(spans) == 0 {
		return fmt.Errorf("%s: no matching spans", path)
	}
	return teletrace.WriteTree(os.Stdout, spans)
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
	out := trace.NewBuffer(0)
	for _, ev := range evs[start:] {
		out.Event(ev)
	}
	return out.Timeline(40)
}
