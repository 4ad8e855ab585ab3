package unxpec

import (
	"testing"

	"repro/internal/undo"
)

// resetTestOptions covers the interesting machinery: eviction sets with
// timing verification (whose sweeps warm the caches during New, so a
// rewind to the constructed state must bring that warmth back) and the
// default CleanupSpec scheme.
func resetTestOptions(seed int64) Options {
	return Options{
		UseEvictionSets:         true,
		TimingBasedEvictionSets: true,
		Seed:                    seed,
	}
}

// TestResetMatchesFreshAttack drives a fresh attack and one rewound to
// its just-constructed state (a checkpoint taken right after New,
// restored after the machine was dirtied) through the same secret
// sequence and requires bit-identical latencies: restore is the one way
// to rewind a machine, and fresh construction is its reference.
func TestResetMatchesFreshAttack(t *testing.T) {
	secrets := []int{0, 1, 1, 0, 1, 0, 0, 1}

	run := func(a *Attack) []uint64 {
		out := make([]uint64, 0, len(secrets))
		for _, s := range secrets {
			lat, err := a.MeasureOnceChecked(s)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, lat)
		}
		return out
	}

	a := MustNew(resetTestOptions(7))
	cp, err := a.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Release()
	first := run(a)
	// Dirty the machine some more before rewinding.
	a.Calibrate(4)
	if err := a.Restore(cp); err != nil {
		t.Fatal(err)
	}
	second := run(a)

	fresh := MustNew(resetTestOptions(7))
	reference := run(fresh)

	for i := range secrets {
		if first[i] != reference[i] {
			t.Fatalf("round %d: fresh attack A %d != fresh attack B %d", i, first[i], reference[i])
		}
		if second[i] != reference[i] {
			t.Fatalf("round %d: restored attack %d != fresh attack %d", i, second[i], reference[i])
		}
	}
}

// TestResetMatchesFreshFuzzyTime pins the RNG-rewind part of the
// contract: restoring a checkpoint taken at construction puts
// FuzzyTime's dummy-delay stream back at its seed, so the restored
// attack draws exactly the delays a fresh one does.
func TestResetMatchesFreshFuzzyTime(t *testing.T) {
	opts := func() Options {
		return Options{Scheme: undo.NewFuzzyTime(64, 99), Seed: 3}
	}
	run := func(a *Attack) []uint64 {
		return []uint64{a.MeasureOnce(1), a.MeasureOnce(1), a.MeasureOnce(0)}
	}
	a := MustNew(opts())
	cp, err := a.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Release()
	first := run(a)
	if err := a.Restore(cp); err != nil {
		t.Fatal(err)
	}
	second := run(a)
	fresh := run(MustNew(opts()))
	for i := range first {
		if first[i] != fresh[i] {
			t.Fatalf("round %d: first run %d != fresh attack %d", i, first[i], fresh[i])
		}
		if second[i] != fresh[i] {
			t.Fatalf("round %d: restored attack %d != fresh attack %d", i, second[i], fresh[i])
		}
	}
}

// TestSteadyStateMeasureOnceAllocatesNothing is the zero-alloc
// regression gate for the hot loop: once the attack reaches steady
// state (trained predictor, warm programs), a full measurement round
// must not allocate.
func TestSteadyStateMeasureOnceAllocatesNothing(t *testing.T) {
	a := MustNew(resetTestOptions(11))
	for i := 0; i < 8; i++ {
		a.MeasureOnce(i & 1) // reach steady state
	}
	avg := testing.AllocsPerRun(50, func() {
		a.MeasureOnce(1)
	})
	if avg != 0 {
		t.Fatalf("steady-state MeasureOnce allocates %.1f times per round, want 0", avg)
	}
}
