package unxpec

import (
	"testing"

	"repro/internal/undo"
)

// TestCheckpointReplaysIdentically checkpoints a warm, calibrated
// attack and requires every restored replay of the same secret
// sequence to produce bit-identical latencies — the contract that lets
// measurement campaigns fork thousands of trials from one warm state
// instead of paying construction and training per trial.
func TestCheckpointReplaysIdentically(t *testing.T) {
	secrets := []int{1, 0, 1, 1, 0, 0, 1, 0}

	a := MustNew(resetTestOptions(13))
	a.Calibrate(6) // warm: trained predictor, primed caches, threshold set

	cp, err := a.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	run := func() []uint64 {
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

	first := run()
	for trial := 0; trial < 3; trial++ {
		if err := a.Restore(cp); err != nil {
			t.Fatalf("trial %d restore: %v", trial, err)
		}
		replay := run()
		for i := range secrets {
			if replay[i] != first[i] {
				t.Fatalf("trial %d round %d: replayed latency %d != first run %d",
					trial, i, replay[i], first[i])
			}
		}
	}
	cp.Release()
}

// TestCheckpointPreservesTraining restores must land the attack back in
// the trained state: the first post-restore round must not re-run the
// training program (rounds counter and trained flag rewind together).
func TestCheckpointPreservesTraining(t *testing.T) {
	a := MustNew(Options{Seed: 17})
	a.MeasureOnce(1) // trains on first use
	if !a.trained {
		t.Fatal("attack not trained after first round")
	}
	cp, err := a.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	roundsAt := a.rounds

	a.MeasureOnce(0)
	a.MeasureOnce(1)
	if err := a.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if !a.trained {
		t.Error("restore lost the trained flag")
	}
	if a.rounds != roundsAt {
		t.Errorf("rounds = %d after restore, checkpoint had %d", a.rounds, roundsAt)
	}
	cp.Release()
}

// TestCheckpointFuzzyTime pins the RNG capture: under FuzzyTime the
// latency stream consumes random draws, so a replay only matches when
// the checkpoint restores the scheme's exact RNG position.
func TestCheckpointFuzzyTime(t *testing.T) {
	a := MustNew(Options{Seed: 19, Scheme: undo.NewFuzzyTime(40, 21)})
	secrets := []int{1, 0, 0, 1, 1, 0}
	for _, s := range secrets {
		a.MeasureOnce(s)
	}
	cp, err := a.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	run := func() []uint64 {
		out := make([]uint64, 0, len(secrets))
		for _, s := range secrets {
			out = append(out, a.MeasureOnce(s))
		}
		return out
	}
	first := run()
	if err := a.Restore(cp); err != nil {
		t.Fatal(err)
	}
	replay := run()
	cp.Release()
	for i := range first {
		if first[i] != replay[i] {
			t.Fatalf("round %d: fuzzy-time replay %d != first continuation %d (RNG position not restored)",
				i, replay[i], first[i])
		}
	}
}
