package unxpec

import (
	"testing"

	"repro/internal/branch"
	"repro/internal/noise"
	"repro/internal/stats"
	"repro/internal/undo"
)

// measure runs one attack round, failing the test on a watchdog trip.
func measure(t testing.TB, a *Attack, secret int) uint64 {
	t.Helper()
	lat, err := a.MeasureOnceChecked(secret)
	if err != nil {
		t.Fatal(err)
	}
	return lat
}

// calibrate is CalibrateChecked, failing the test on a watchdog trip.
func calibrate(t testing.TB, a *Attack, n int) Calibration {
	t.Helper()
	cal, err := a.CalibrateChecked(n)
	if err != nil {
		t.Fatal(err)
	}
	return cal
}

// leak is LeakSecretChecked, failing the test on a watchdog trip.
func leak(t testing.TB, a *Attack, bits []int, threshold float64, samplesPerBit int) LeakResult {
	t.Helper()
	res, err := a.LeakSecretChecked(bits, threshold, samplesPerBit)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestHeadlineTimingDifference(t *testing.T) {
	// The paper's core result: a single transient load yields a
	// 22-cycle secret-dependent difference; eviction sets raise it to
	// 32 (Abstract, §VI-A).
	a := MustNew(Options{Seed: 1})
	d := int64(measure(t, a, 1)) - int64(measure(t, a, 0))
	if d != 22 {
		t.Fatalf("timing difference %d cycles, want 22", d)
	}
	es := MustNew(Options{Seed: 1, UseEvictionSets: true})
	d = int64(measure(t, es, 1)) - int64(measure(t, es, 0))
	if d != 32 {
		t.Fatalf("eviction-set timing difference %d cycles, want 32", d)
	}
}

func TestBranchResolutionConstantAcrossSecrets(t *testing.T) {
	// §IV-A: resolution time is secret-independent for fixed f(N).
	a := MustNew(Options{Seed: 2})
	measure(t, a, 0)
	r0, c0 := a.LastSquashStats()
	measure(t, a, 1)
	r1, c1 := a.LastSquashStats()
	if r0 != r1 {
		t.Fatalf("branch resolution differs by secret: %d vs %d", r0, r1)
	}
	if c0 != 0 {
		t.Fatalf("secret-0 cleanup stall %d, want 0 (no state change)", c0)
	}
	if c1 != 22 {
		t.Fatalf("secret-1 cleanup stall %d, want 22", c1)
	}
}

func TestBranchResolutionScalesWithFN(t *testing.T) {
	// §IV-A: resolution grows linearly with the f(N) chain depth.
	var res [4]uint64
	for n := 1; n <= 3; n++ {
		a := MustNew(Options{Seed: 3, FNAccesses: n})
		measure(t, a, 1)
		res[n], _ = a.LastSquashStats()
	}
	if res[2] < res[1]+80 || res[3] < res[2]+80 {
		t.Fatalf("resolution times %v do not grow by ≈memory latency per access", res[1:])
	}
}

func TestBranchResolutionInsensitiveToLoadCount(t *testing.T) {
	// Figure 2: in-branch load count barely moves resolution time.
	var res []uint64
	for _, loads := range []int{1, 3, 5} {
		a := MustNew(Options{Seed: 4, LoadsInBranch: loads})
		measure(t, a, 1)
		r, _ := a.LastSquashStats()
		res = append(res, r)
	}
	for _, r := range res {
		if r > res[0]+10 || r+10 < res[0] {
			t.Fatalf("resolution varies with load count: %v", res)
		}
	}
}

func TestDifferenceGrowthWithLoads(t *testing.T) {
	// Figures 3 and 6: difference grows slowly without eviction sets,
	// steeply with them.
	diff := func(es bool, loads int) int64 {
		a := MustNew(Options{Seed: 5, LoadsInBranch: loads, UseEvictionSets: es})
		return int64(measure(t, a, 1)) - int64(measure(t, a, 0))
	}
	d1, d8 := diff(false, 1), diff(false, 8)
	if d1 != 22 {
		t.Fatalf("no-ES diff at 1 load = %d", d1)
	}
	if d8 < d1 || d8 > d1+8 {
		t.Fatalf("no-ES diff grew %d → %d, want shallow growth to ≈25", d1, d8)
	}
	e1, e8 := diff(true, 1), diff(true, 8)
	if e1 != 32 {
		t.Fatalf("ES diff at 1 load = %d", e1)
	}
	if e8 < 55 || e8 > 75 {
		t.Fatalf("ES diff at 8 loads = %d, want ≈64", e8)
	}
}

func TestPrimedStateSurvivesRounds(t *testing.T) {
	// §VI-B: rollback restores the primed lines, so priming once
	// suffices; the difference must not decay over rounds.
	a := MustNew(Options{Seed: 6, UseEvictionSets: true})
	for round := 0; round < 10; round++ {
		d := int64(measure(t, a, 1)) - int64(measure(t, a, 0))
		if d != 32 {
			t.Fatalf("round %d: difference decayed to %d (primed state lost)", round, d)
		}
	}
}

func TestNoChannelAgainstUnsafeBaseline(t *testing.T) {
	// The channel is a property of rollback: without cleanup there is
	// no secret-dependent stall.
	a := MustNew(Options{Seed: 7, Scheme: undo.NewUnsafe()})
	d := int64(measure(t, a, 1)) - int64(measure(t, a, 0))
	if d < -3 || d > 3 {
		t.Fatalf("unsafe baseline shows a %d-cycle difference; rollback is the channel", d)
	}
}

func TestNoChannelAgainstInvisibleLite(t *testing.T) {
	a := MustNew(Options{Seed: 8, Scheme: undo.NewInvisibleLite()})
	d := int64(measure(t, a, 1)) - int64(measure(t, a, 0))
	if d < -3 || d > 3 {
		t.Fatalf("invisible scheme shows a %d-cycle rollback difference", d)
	}
}

func TestConstantTimeRollbackClosesChannel(t *testing.T) {
	// §VI-E: with a sufficiently large relaxed constant, the stall is
	// secret-independent.
	a := MustNew(Options{Seed: 9, Scheme: undo.NewConstantTime(65, undo.Relaxed)})
	d := int64(measure(t, a, 1)) - int64(measure(t, a, 0))
	if d != 0 {
		t.Fatalf("constant-time rollback leaks a %d-cycle difference", d)
	}
}

func TestUndersizedConstantStillLeaks(t *testing.T) {
	// A relaxed constant below the worst-case rollback does not fully
	// hide the difference (§VI-E second strategy discussion).
	a := MustNew(Options{Seed: 10, Scheme: undo.NewConstantTime(25, undo.Relaxed), UseEvictionSets: true})
	d := int64(measure(t, a, 1)) - int64(measure(t, a, 0))
	if d <= 0 {
		t.Fatalf("undersized constant should still leak, diff=%d", d)
	}
}

func TestCalibrationNoiseless(t *testing.T) {
	a := MustNew(Options{Seed: 11})
	cal := calibrate(t, a, 20)
	if cal.Diff != 22 {
		t.Fatalf("calibrated diff %.1f", cal.Diff)
	}
	if cal.TrainAcc != 1 {
		t.Fatalf("noiseless calibration accuracy %.3f, want 1", cal.TrainAcc)
	}
	if cal.Threshold <= cal.Mean0 || cal.Threshold > cal.Mean1 {
		t.Fatalf("threshold %.1f outside (%.1f, %.1f]", cal.Threshold, cal.Mean0, cal.Mean1)
	}
}

func TestSecretLeakageAccuracyBands(t *testing.T) {
	// §VI-C: single-sample accuracy ≈86.7% without and ≈91.6% with
	// eviction sets under system noise.
	run := func(es bool) float64 {
		a := MustNew(Options{Seed: 12, UseEvictionSets: es, Noise: noise.NewSystem(99)})
		cal := calibrate(t, a, 200)
		res := leak(t, a, RandomSecret(600, 13), cal.Threshold, 1)
		return res.Accuracy
	}
	accNo := run(false)
	accES := run(true)
	if accNo < 0.80 || accNo > 0.93 {
		t.Fatalf("no-ES accuracy %.3f outside the paper band ≈0.867", accNo)
	}
	if accES < 0.87 || accES > 0.98 {
		t.Fatalf("ES accuracy %.3f outside the paper band ≈0.916", accES)
	}
	if accES <= accNo {
		t.Fatalf("eviction sets must improve accuracy: %.3f vs %.3f", accES, accNo)
	}
}

func TestMultiSampleDecodingImproves(t *testing.T) {
	// §VI-D: more samples per bit suppress noise.
	a := MustNew(Options{Seed: 14, Noise: noise.NewSystem(5)})
	cal := calibrate(t, a, 150)
	bits := RandomSecret(200, 15)
	one := leak(t, a, bits, cal.Threshold, 1)
	five := leak(t, a, bits, cal.Threshold, 5)
	if five.Accuracy < one.Accuracy {
		t.Fatalf("5-sample accuracy %.3f below 1-sample %.3f", five.Accuracy, one.Accuracy)
	}
	if five.Accuracy < 0.97 {
		t.Fatalf("5-sample majority vote accuracy %.3f, want ≥0.97", five.Accuracy)
	}
}

func TestLeakageRateBand(t *testing.T) {
	// §VI-B: ≈140k samples/s at 2 GHz.
	a := MustNew(Options{Seed: 16})
	for i := 0; i < 50; i++ {
		measure(t, a, i%2)
	}
	r := a.LeakageRate(2.0)
	if r.SamplesPerSecond < 100_000 || r.SamplesPerSecond > 200_000 {
		t.Fatalf("leakage rate %.0f samples/s outside the 140k band", r.SamplesPerSecond)
	}
	if r.Rounds != 50 || r.BitsPerSecond != r.SamplesPerSecond {
		t.Fatalf("rate report %+v", r)
	}
}

func TestLeakageRateEmpty(t *testing.T) {
	a := MustNew(Options{Seed: 17})
	if r := a.LeakageRate(2.0); r.SamplesPerSecond != 0 {
		t.Fatal("rate before any rounds should be 0")
	}
}

func TestTimingBasedEvictionSets(t *testing.T) {
	// The realistic construction path must deliver the same channel.
	a := MustNew(Options{Seed: 18, UseEvictionSets: true, TimingBasedEvictionSets: true})
	d := int64(measure(t, a, 1)) - int64(measure(t, a, 0))
	if d < 30 || d > 40 {
		t.Fatalf("timing-based eviction sets diff %d, want ≈32", d)
	}
}

func TestRandomSecretReproducible(t *testing.T) {
	a := RandomSecret(100, 1)
	b := RandomSecret(100, 1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give same secret")
		}
		if a[i] != 0 && a[i] != 1 {
			t.Fatal("secret bits must be 0/1")
		}
	}
	c := RandomSecret(100, 2)
	diff := 0
	for i := range a {
		if a[i] != c[i] {
			diff++
		}
	}
	if diff < 20 {
		t.Fatal("different seeds should differ substantially")
	}
}

func TestBitsBytesRoundTrip(t *testing.T) {
	msg := []byte("unXpec!")
	bits := BytesToBits(msg)
	if len(bits) != len(msg)*8 {
		t.Fatalf("bit count %d", len(bits))
	}
	back := BitsToBytes(bits)
	if string(back) != string(msg) {
		t.Fatalf("round trip %q", back)
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := New(Options{LoadsInBranch: 99}); err == nil {
		t.Fatal("absurd load count accepted")
	}
	if _, err := New(Options{FNAccesses: -1}); err == nil {
		t.Fatal("negative f(N) accepted")
	}
	if _, err := NewLayout(0); err == nil {
		t.Fatal("zero-access layout accepted")
	}
}

func TestLayoutDisjointRegions(t *testing.T) {
	l, err := NewLayout(3)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(l.ABase)+l.OOBIndex != uint64(l.SecretAddr) {
		t.Fatal("OOB index does not resolve to the secret")
	}
	if l.OOBIndex <= l.Bound {
		t.Fatal("OOB index must fail the bounds check")
	}
	if len(l.ChainNodes) != 3 {
		t.Fatal("chain length")
	}
}

func TestLeakSecretAccountsLatencies(t *testing.T) {
	a := MustNew(Options{Seed: 19})
	cal := calibrate(t, a, 10)
	res := leak(t, a, []int{0, 1, 0, 1}, cal.Threshold, 1)
	if len(res.Latencies) != 4 || len(res.Guesses) != 4 {
		t.Fatalf("result sizes %d/%d", len(res.Latencies), len(res.Guesses))
	}
	if res.Accuracy != 1 {
		t.Fatalf("noiseless leak accuracy %.2f", res.Accuracy)
	}
	_ = stats.Accuracy(res.Guesses, res.Truth)
}

func TestSamplesPerBitFloor(t *testing.T) {
	a := MustNew(Options{Seed: 20})
	res := leak(t, a, []int{1}, 140, 0)
	if res.SamplesPerBit != 1 {
		t.Fatal("samplesPerBit should floor at 1")
	}
}

func TestAttackWorksAgainstGshare(t *testing.T) {
	// Repeated identical training paths hold the global history
	// constant at the victim branch, so gshare mistrains like bimodal
	// and the channel is unchanged.
	a := MustNew(Options{
		Seed:      50,
		Predictor: branch.NewGshare(branch.DefaultConfig(), 8),
	})
	d := int64(measure(t, a, 1)) - int64(measure(t, a, 0))
	if d != 22 {
		t.Fatalf("gshare timing difference %d, want 22", d)
	}
}
