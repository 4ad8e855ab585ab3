package unxpec_test

import (
	"fmt"
	"log"

	"repro/internal/unxpec"
)

// The minimal use of the public API: build the attack, transmit both
// secret values once, observe the rollback-timing difference.
func ExampleAttack_MeasureOnceChecked() {
	attack := unxpec.MustNew(unxpec.Options{Seed: 1})
	lat0, err := attack.MeasureOnceChecked(0)
	if err != nil {
		log.Fatal(err)
	}
	lat1, err := attack.MeasureOnceChecked(1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(lat1 - lat0)
	// Output: 22
}

// Eviction sets enlarge the difference by forcing restorations.
func ExampleAttack_MeasureOnceChecked_evictionSets() {
	attack := unxpec.MustNew(unxpec.Options{Seed: 1, UseEvictionSets: true})
	lat0, err := attack.MeasureOnceChecked(0)
	if err != nil {
		log.Fatal(err)
	}
	lat1, err := attack.MeasureOnceChecked(1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(lat1 - lat0)
	// Output: 32
}

// CalibrateChecked fits the receiver's decision threshold; noiseless
// runs separate the classes perfectly.
func ExampleAttack_CalibrateChecked() {
	attack := unxpec.MustNew(unxpec.Options{Seed: 1})
	cal, err := attack.CalibrateChecked(10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("diff=%.0f accuracy=%.0f%%\n", cal.Diff, 100*cal.TrainAcc)
	// Output: diff=22 accuracy=100%
}

// LeakSecretChecked steals a bit string one measurement per bit.
func ExampleAttack_LeakSecretChecked() {
	attack := unxpec.MustNew(unxpec.Options{Seed: 1})
	cal, err := attack.CalibrateChecked(10)
	if err != nil {
		log.Fatal(err)
	}
	res, err := attack.LeakSecretChecked([]int{1, 0, 1, 1, 0}, cal.Threshold, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Guesses, res.Accuracy)
	// Output: [1 0 1 1 0] 1
}

// Hamming(7,4) coding makes the channel reliable under noise.
func ExampleEncodeHamming() {
	code := unxpec.EncodeHamming([]int{1, 0, 1, 1})
	code[3] ^= 1 // one transmission error
	data, corrections := unxpec.DecodeHamming(code)
	fmt.Println(data, corrections)
	// Output: [1 0 1 1] 1
}
