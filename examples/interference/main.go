// Speculative interference (the paper's reference [2], Behnia et al.):
// the attack that broke Invisible defenses and motivated the deep
// inspection of Undo defenses that unXpec delivers. Transient loads
// occupy MSHRs even when their cache effects are hidden; a burst of
// secret-dependent misses delays the victim's own branch-resolution
// load, and the receiver times it.
//
// Running it here closes the paper's argument: every defense family
// falls to *some* timing channel —
//
//	Invisible → interference (this demo)
//	Undo      → rollback timing (examples/quickstart)
//
//	go run ./examples/interference
package main

import (
	"fmt"
	"log"

	"repro/internal/interference"
	"repro/internal/undo"
)

func main() {
	fmt.Println("speculative interference: MSHR contention vs every defense family")
	fmt.Println()
	for _, tc := range []struct {
		name   string
		scheme undo.Scheme
	}{
		{"invisible-lite (state fully hidden)", undo.NewInvisibleLite()},
		{"cleanupspec (state rolled back)", undo.NewCleanupSpec()},
		{"cleanupspec + const-80 rollback", undo.NewConstantTime(80, undo.Relaxed)},
	} {
		a, err := interference.New(interference.Options{Seed: 1, Scheme: tc.scheme})
		if err != nil {
			log.Fatal(err)
		}
		lat1, err := a.MeasureOnceChecked(1)
		if err != nil {
			log.Fatal(err)
		}
		lat0, err := a.MeasureOnceChecked(0)
		if err != nil {
			log.Fatal(err)
		}
		d := int64(lat1) - int64(lat0)
		fmt.Printf("  %-36s secret-dependent delay %2d cycles → LEAKS\n", tc.name, d)
	}
	fmt.Println()
	fmt.Println("a burst of 24 transient misses floods the 16-entry MSHR file, so the")
	fmt.Println("branch-condition load stalls — before any rollback or install happens.")
	fmt.Println("hiding or undoing cache state cannot remove contention on shared")
	fmt.Println("resources; that is why the paper calls for rethinking safe speculation.")
}
