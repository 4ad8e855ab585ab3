package interference

import (
	"testing"

	"repro/internal/stats"
	"repro/internal/undo"
)

// measure runs one round, failing the test on a watchdog trip.
func measure(t *testing.T, a *Attack, secret int) uint64 {
	t.Helper()
	lat, err := a.MeasureOnceChecked(secret)
	if err != nil {
		t.Fatal(err)
	}
	return lat
}

func TestInterferenceBreaksInvisibleScheme(t *testing.T) {
	// The headline: a secret-dependent MSHR-contention delay against a
	// defense that installs nothing in the cache.
	a := MustNew(Options{Seed: 1})
	d := int64(measure(t, a, 1)) - int64(measure(t, a, 0))
	if d < 10 {
		t.Fatalf("interference difference %d cycles, want ≥10 (MSHR stall)", d)
	}
	// And genuinely no footprint: the burst lines are absent afterward.
	for i := 1; i <= 4; i++ {
		if in1, in2 := a.hier.Probe(a.probe + 64); in1 || in2 {
			t.Fatalf("burst line %d left a footprint under the invisible scheme", i)
		}
	}
}

func TestInterferenceNeedsMSHRPressure(t *testing.T) {
	// With a burst smaller than the MSHR capacity there is no
	// contention and no channel.
	small := MustNew(Options{Seed: 2, Burst: 4})
	d := int64(measure(t, small, 1)) - int64(measure(t, small, 0))
	if d > 4 || d < -4 {
		t.Fatalf("small burst shows %d-cycle difference; contention model wrong", d)
	}
}

func TestInterferenceCalibration(t *testing.T) {
	a := MustNew(Options{Seed: 3})
	var s0, s1 []float64
	for i := 0; i < 30; i++ {
		s0 = append(s0, float64(measure(t, a, 0)))
		s1 = append(s1, float64(measure(t, a, 1)))
	}
	diff := stats.Mean(s1) - stats.Mean(s0)
	_, acc := stats.BestThreshold(s0, s1)
	if diff < 10 {
		t.Fatalf("calibrated diff %.1f", diff)
	}
	if acc != 1 {
		t.Fatalf("noiseless accuracy %.3f, want 1 (deterministic channel)", acc)
	}
}

func TestInterferenceAlsoHitsUndoAndUnsafe(t *testing.T) {
	// MSHR contention is defense-agnostic: the unsafe machine and
	// CleanupSpec see it too (CleanupSpec adds its rollback delta on
	// top). This is why the paper treats interference [2] and unXpec
	// as complementary: no state-hiding family addresses contention.
	unsafe := MustNew(Options{Seed: 4, Scheme: undo.NewUnsafe()})
	dUnsafe := int64(measure(t, unsafe, 1)) - int64(measure(t, unsafe, 0))
	if dUnsafe < 10 {
		t.Fatalf("unsafe machine shows %d, want the same contention", dUnsafe)
	}
	cs := MustNew(Options{Seed: 5, Scheme: undo.NewCleanupSpec()})
	dCS := int64(measure(t, cs, 1)) - int64(measure(t, cs, 0))
	if dCS <= dUnsafe {
		t.Fatalf("CleanupSpec diff %d should exceed pure contention %d (adds rollback time)", dCS, dUnsafe)
	}
}

func TestInterferenceConstantTimeRollbackDoesNotHelp(t *testing.T) {
	// The §VI-E countermeasure fixes rollback time, but contention
	// happens *before* resolution — the channel survives. Defending
	// Undo schemes against unXpec does not defend against [2].
	a := MustNew(Options{Seed: 6, Scheme: undo.NewConstantTime(80, undo.Relaxed)})
	d := int64(measure(t, a, 1)) - int64(measure(t, a, 0))
	if d < 10 {
		t.Fatalf("constant-time rollback suppressed interference (%d cycles)?", d)
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := New(Options{Burst: 1000}); err == nil {
		t.Fatal("absurd burst accepted")
	}
	a := MustNew(Options{})
	if a.opts.Burst != 24 {
		t.Fatalf("default burst %d", a.opts.Burst)
	}
	if a.opts.Scheme.Name() != "invisible-lite" {
		t.Fatalf("default scheme %s", a.opts.Scheme.Name())
	}
}

func TestDeterministicRounds(t *testing.T) {
	a := MustNew(Options{Seed: 7})
	first := measure(t, a, 1)
	for i := 0; i < 5; i++ {
		if got := measure(t, a, 1); got != first {
			t.Fatalf("round %d: %d != %d", i, got, first)
		}
	}
}
