package unxpec

import (
	"testing"

	"repro/internal/undo"
)

// TestFuzzyTimeOnlyRateLimits shows the limits of the paper's proposed
// future-work defense: random padding blurs single samples but leaves a
// secret-dependent *mean* (short rollbacks get more padding headroom
// than long ones, yet the distributions still differ), so an attacker
// following §VI-D — more samples per bit — recovers the secret. Fuzzy
// time trades leakage rate for cost; it does not close the channel.
func TestFuzzyTimeOnlyRateLimits(t *testing.T) {
	a := MustNew(Options{
		Seed:            40,
		UseEvictionSets: true,
		Scheme:          undo.NewFuzzyTime(40, 11),
	})
	cal := calibrate(t, a, 400)
	if cal.Diff < 5 {
		t.Fatalf("fuzzy-time mean difference %.1f — padding construction changed?", cal.Diff)
	}
	// Single samples are degraded relative to the undefended ≈0.95+...
	single := leak(t, a, RandomSecret(300, 41), cal.Threshold, 1)
	// ...but majority voting restores the attack.
	voted := leak(t, a, RandomSecret(300, 42), cal.Threshold, 15)
	if voted.Accuracy <= single.Accuracy {
		t.Fatalf("voting did not help: %.3f vs %.3f", voted.Accuracy, single.Accuracy)
	}
	if voted.Accuracy < 0.85 {
		t.Fatalf("15-sample attack against fuzzy time only reached %.3f", voted.Accuracy)
	}
}

// TestConstantTimeImmuneToAveraging is the contrast: a sufficient
// relaxed constant leaves *zero* mean difference, so no number of
// samples helps.
func TestConstantTimeImmuneToAveraging(t *testing.T) {
	a := MustNew(Options{
		Seed:            43,
		UseEvictionSets: true,
		Scheme:          undo.NewConstantTime(80, undo.Relaxed),
	})
	cal := calibrate(t, a, 200)
	if cal.Diff != 0 {
		t.Fatalf("const-80 shows a %.2f-cycle mean difference", cal.Diff)
	}
	// The calibrated "best" threshold on pure noise decodes at chance.
	res := leak(t, a, RandomSecret(400, 44), cal.Threshold, 9)
	if res.Accuracy > 0.65 {
		t.Fatalf("averaging attack recovered %.3f accuracy against a full constant", res.Accuracy)
	}
}
