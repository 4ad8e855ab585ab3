// Covert channel: exfiltrate an ASCII message bit by bit through the
// unXpec rollback-timing channel, under system noise, with the eviction-
// set optimization and majority-vote decoding.
//
//	go run ./examples/covertchannel [-msg TEXT] [-spb N]
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/noise"
	"repro/internal/unxpec"
)

func main() {
	msg := flag.String("msg", "undo is not free", "message to exfiltrate")
	spb := flag.Int("spb", 3, "samples per bit (majority vote)")
	ecc := flag.Bool("ecc", true, "protect the stream with Hamming(7,4)")
	flag.Parse()

	attack, err := unxpec.New(unxpec.Options{
		Seed:            7,
		UseEvictionSets: true,
		Noise:           noise.NewSystem(7),
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("covert channel demo: leaking %q (%d bits) with eviction sets\n",
		*msg, 8*len(*msg))

	fmt.Println("calibrating decision threshold...")
	cal, err := attack.CalibrateChecked(300)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  secret-dependent difference %.1f cycles, threshold %.0f\n", cal.Diff, cal.Threshold)

	bits := unxpec.BytesToBits([]byte(*msg))
	var decodedBits []int
	var accuracy float64
	if *ecc {
		var corrections int
		decodedBits, accuracy, corrections, err = attack.LeakSecretECC(bits, cal.Threshold, *spb)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  Hamming(7,4) corrected %d code-bit error(s)\n", corrections)
	} else {
		res, err := attack.LeakSecretChecked(bits, cal.Threshold, *spb)
		if err != nil {
			log.Fatal(err)
		}
		decodedBits, accuracy = res.Guesses, res.Accuracy
	}
	decoded := unxpec.BitsToBytes(decodedBits)

	fmt.Printf("  bit accuracy %.1f%% at %d sample(s)/bit (ecc=%v)\n", 100*accuracy, *spb, *ecc)
	fmt.Printf("  decoded: %q\n", printable(decoded))

	rate := attack.LeakageRate(2.0)
	overheadNote := ""
	if *ecc {
		overheadNote = ", ×4/7 for coding"
	}
	fmt.Printf("  channel rate ≈%.0f Kbps raw (÷%d for voting%s)\n",
		rate.BitsPerSecond/1000, *spb, overheadNote)
}

// printable maps non-printable bytes to '.' so decode errors stay
// readable.
func printable(b []byte) string {
	out := make([]byte, len(b))
	for i, c := range b {
		if c >= 32 && c < 127 {
			out[i] = c
		} else {
			out[i] = '.'
		}
	}
	return string(out)
}
