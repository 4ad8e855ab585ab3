// Command unxpec runs the unXpec attack end to end on the simulated
// CleanupSpec machine: calibrate a decision threshold, leak a random
// secret, and report accuracy and leakage rate.
//
// Usage:
//
//	unxpec [-bits N] [-evict] [-loads N] [-fn N] [-noise] [-seed S]
//	       [-samples-per-bit N] [-scheme NAME] [-quiet]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/noise"
	"repro/internal/undo"
	"repro/internal/unxpec"
)

func main() {
	var (
		bits      = flag.Int("bits", 1000, "number of secret bits to leak")
		useEvict  = flag.Bool("evict", false, "use eviction sets (Figure 5 optimization)")
		loads     = flag.Int("loads", 1, "transient loads in the branch (1..8)")
		fn        = flag.Int("fn", 1, "memory accesses in the branch condition f(N)")
		noisy     = flag.Bool("noise", true, "enable the system-noise model")
		seed      = flag.Int64("seed", 1, "seed for all stochastic components")
		spb       = flag.Int("samples-per-bit", 1, "measurements per decoded bit (majority vote)")
		schemeArg = flag.String("scheme", "cleanupspec", "defense under attack: cleanupspec, unsafe, const-N, strict-N, fuzzy-N, invisible")
		quiet     = flag.Bool("quiet", false, "only print the summary line")
		tune      = flag.Bool("tune", false, "sweep loads-in-branch and report the capacity-optimal configuration (§V-C)")
	)
	flag.Parse()

	if *tune {
		runTune(*seed, *useEvict)
		return
	}

	scheme, err := undo.Parse(*schemeArg, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "unxpec:", err)
		os.Exit(2)
	}

	var nz noise.Model = noise.None{}
	if *noisy {
		nz = noise.NewSystem(*seed + 100)
	}

	attack, err := unxpec.New(unxpec.Options{
		LoadsInBranch:   *loads,
		FNAccesses:      *fn,
		UseEvictionSets: *useEvict,
		Scheme:          scheme,
		Noise:           nz,
		Seed:            *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "unxpec:", err)
		os.Exit(2)
	}

	if !*quiet {
		fmt.Printf("target scheme : %s\n", scheme.Name())
		fmt.Printf("eviction sets : %v (%d primed lines)\n", *useEvict, len(attack.PrimeLines()))
		fmt.Printf("calibrating threshold over 300 samples per secret value...\n")
	}
	cal, err := attack.CalibrateChecked(300)
	if err != nil {
		fmt.Fprintln(os.Stderr, "unxpec: calibration:", err)
		os.Exit(1)
	}
	if !*quiet {
		fmt.Printf("secret-0 mean %.1f cycles, secret-1 mean %.1f cycles, difference %.1f\n",
			cal.Mean0, cal.Mean1, cal.Diff)
		fmt.Printf("threshold %.0f cycles (training accuracy %.1f%%)\n", cal.Threshold, 100*cal.TrainAcc)
	}

	secret := unxpec.RandomSecret(*bits, *seed+200)
	res, err := attack.LeakSecretChecked(secret, cal.Threshold, *spb)
	if err != nil {
		fmt.Fprintln(os.Stderr, "unxpec: leak:", err)
		os.Exit(1)
	}
	rate := attack.LeakageRate(2.0)

	fmt.Printf("leaked %d bits at %d sample(s)/bit: accuracy %.1f%%, ≈%.0f Kbps on a 2 GHz core\n",
		len(res.Guesses), res.SamplesPerBit, 100*res.Accuracy, rate.BitsPerSecond/1000)

	if cal.Diff < 3 {
		fmt.Println("note: the timing difference is gone — this scheme resists unXpec")
	}
}

// runTune performs the §V-C parameterization sweep.
func runTune(seed int64, useEvict bool) {
	pts, best, err := unxpec.AutoTune(unxpec.Options{
		Seed:            seed,
		UseEvictionSets: useEvict,
		Noise:           noise.NewSystem(seed + 100),
	}, nil, 8, 120)
	if err != nil {
		fmt.Fprintln(os.Stderr, "unxpec:", err)
		os.Exit(2)
	}
	fmt.Printf("%-6s %-12s %-10s %-14s %s\n", "loads", "diff(cyc)", "accuracy", "samples/s", "capacity(bps)")
	for i, p := range pts {
		marker := " "
		if i == best {
			marker = "*"
		}
		fmt.Printf("%-6d %-12.1f %-10.3f %-14.0f %.0f %s\n",
			p.Loads, p.Diff, p.Accuracy, p.SamplesPerSecond, p.CapacityBps, marker)
	}
	fmt.Printf("optimal: %d load(s) in the branch\n", pts[best].Loads)
}
