// Mitigation sweep: measure both sides of the §VI-E trade-off for every
// candidate defense — how wide a timing channel it leaves to unXpec,
// and how much it slows down the benchmark suite.
//
//	go run ./examples/mitigation [-scale N]
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/undo"
	"repro/internal/unxpec"
	"repro/internal/workload"
)

func main() {
	scale := flag.Int("scale", 4000, "workload iteration scale")
	flag.Parse()

	specs := []string{
		"unsafe", "cleanupspec",
		"const-25", "const-35", "const-45", "const-65",
		"fuzzy-40", "invisible",
	}

	fmt.Printf("%-22s %-18s %s\n", "scheme", "channel (cycles)", "mean overhead vs unsafe")
	suite := workload.Suite(*scale, 1)

	// Baseline cycles per workload.
	base := map[string]uint64{}
	for _, w := range suite {
		base[w.Name] = cycles(w, undo.NewUnsafe())
	}

	for _, spec := range specs {
		mk := func() undo.Scheme {
			s, err := undo.Parse(spec, 1)
			if err != nil {
				log.Fatal(err)
			}
			return s
		}

		// Channel width: mean observed difference over 8 rounds.
		attack, err := unxpec.New(unxpec.Options{Seed: 2, Scheme: mk()})
		if err != nil {
			log.Fatal(err)
		}
		var d float64
		const rounds = 8
		for i := 0; i < rounds; i++ {
			d += float64(measure(attack, 1)) - float64(measure(attack, 0))
		}
		d /= rounds

		// Overhead across the suite.
		var sum float64
		for _, w := range suite {
			sum += float64(cycles(w, mk()))/float64(base[w.Name]) - 1
		}
		overhead := sum / float64(len(suite))

		verdict := "LEAKS"
		if d < 3 && d > -3 {
			verdict = "closed"
		}
		fmt.Printf("%-22s %6.1f  (%s)%8.1f%%\n", spec, d, verdict, 100*overhead)
	}

	fmt.Println()
	fmt.Println("reading: CleanupSpec is fast but leaks ≈22 cycles; constant-time")
	fmt.Println("rollback closes the channel only at the worst-case constant, whose")
	fmt.Println("overhead the paper measures at 22.4%→72.8% (Figure 12); fuzzy time")
	fmt.Println("narrows the channel at a fraction of that cost (§VII future work).")
}

// cycles runs w under scheme on a fresh machine and returns its cycle
// count; a watchdog trip ends the demo rather than skewing a mean.
func cycles(w workload.Workload, scheme undo.Scheme) uint64 {
	run, err := workload.RunChecked(w, scheme, 1)
	if err != nil {
		log.Fatal(err)
	}
	return run.Stats.Cycles
}

// measure runs one attack round and returns the observed latency.
func measure(a *unxpec.Attack, secret int) uint64 {
	lat, err := a.MeasureOnceChecked(secret)
	if err != nil {
		log.Fatal(err)
	}
	return lat
}
