// Quickstart: leak one secret bit through the unXpec timing channel.
//
// The program builds the simulated CleanupSpec machine, plants a secret
// bit in victim memory, runs one attack round per secret value, and
// shows the secret-dependent rollback-time difference the receiver
// observes — the paper's core result, in ~20 lines of API use.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/unxpec"
)

func main() {
	attack, err := unxpec.New(unxpec.Options{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("unXpec quickstart: one transient load against CleanupSpec")
	fmt.Println()

	lat0, err := attack.MeasureOnceChecked(0)
	if err != nil {
		log.Fatal(err)
	}
	res0, clean0 := attack.LastSquashStats()
	fmt.Printf("secret = 0: observed latency %3d cycles (branch resolved in %d, cleanup stalled %d)\n",
		lat0, res0, clean0)

	lat1, err := attack.MeasureOnceChecked(1)
	if err != nil {
		log.Fatal(err)
	}
	res1, clean1 := attack.LastSquashStats()
	fmt.Printf("secret = 1: observed latency %3d cycles (branch resolved in %d, cleanup stalled %d)\n",
		lat1, res1, clean1)

	fmt.Println()
	fmt.Printf("secret-dependent timing difference: %d cycles (paper: ≈22)\n", int64(lat1)-int64(lat0))
	fmt.Println()
	fmt.Println("why: under secret 0 the transient load hits P[0] (pre-loaded by the")
	fmt.Println("receiver) and rollback has nothing to undo; under secret 1 it misses,")
	fmt.Println("installs P[64], and CleanupSpec must invalidate that line in L1 and L2")
	fmt.Println("while the core stalls — a timing channel through the undo operation.")
}
