// Spectre v1 (the paper's Algorithm 1) against three machines: the
// unsafe baseline (leaks), CleanupSpec (Flush+Reload blinded — the
// defense works against footprint channels), and CleanupSpec again via
// unXpec (the rollback-timing channel the defense cannot hide).
//
//	go run ./examples/spectre
package main

import (
	"fmt"
	"log"

	"repro/internal/spectre"
	"repro/internal/undo"
	"repro/internal/unxpec"
)

func main() {
	secret := []byte("gopher")

	fmt.Println("1) Spectre v1 + Flush+Reload vs the UNSAFE baseline")
	a1, err := spectre.New(undo.NewUnsafe(), 1)
	if err != nil {
		log.Fatal(err)
	}
	decoded, hits := a1.LeakBytes(secret, 256)
	fmt.Printf("   leaked %q (%d/%d probe hits) — the classic attack works\n\n",
		decoded, hits, len(secret))

	fmt.Println("2) the same attack vs CLEANUPSPEC")
	a2, err := spectre.New(undo.NewCleanupSpec(), 2)
	if err != nil {
		log.Fatal(err)
	}
	_, hits = a2.LeakBytes(secret, 256)
	fmt.Printf("   %d/%d probe hits — rollback erased every footprint; Undo defense holds\n\n",
		hits, len(secret))

	fmt.Println("3) unXpec vs CLEANUPSPEC: measure the rollback itself")
	a3 := unxpec.MustNew(unxpec.Options{Seed: 3, UseEvictionSets: true})
	cal, err := a3.CalibrateChecked(50)
	if err != nil {
		log.Fatal(err)
	}
	bits := unxpec.BytesToBits(secret)
	res, err := a3.LeakSecretChecked(bits, cal.Threshold, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   leaked %q (bit accuracy %.1f%%) — the cleanup *time* leaks what the\n",
		unxpec.BitsToBytes(res.Guesses), 100*res.Accuracy)
	fmt.Println("   cleanup *state* hides: breaking Undo-based safe speculation.")
}
