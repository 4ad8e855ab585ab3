package unxpec

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/noise"
)

func TestHammingRoundTripClean(t *testing.T) {
	f := func(raw []byte) bool {
		bits := make([]int, len(raw))
		for i, b := range raw {
			bits[i] = int(b) & 1
		}
		code := EncodeHamming(bits)
		if len(code)%7 != 0 {
			return false
		}
		data, corr := DecodeHamming(code)
		if corr != 0 {
			return false
		}
		for i := range bits {
			if data[i] != bits[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHammingCorrectsEverySingleBitError(t *testing.T) {
	bits := []int{1, 0, 1, 1}
	code := EncodeHamming(bits)
	for pos := 0; pos < 7; pos++ {
		flipped := append([]int(nil), code...)
		flipped[pos] ^= 1
		data, corr := DecodeHamming(flipped)
		if corr != 1 {
			t.Fatalf("flip at %d: %d corrections", pos, corr)
		}
		for i := range bits {
			if data[i] != bits[i] {
				t.Fatalf("flip at %d not corrected: %v", pos, data[:4])
			}
		}
	}
}

func TestHammingRandomSingleErrorsPerBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bits := RandomSecret(400, 2)
	code := EncodeHamming(bits)
	// Flip exactly one bit in each 7-bit block.
	for blk := 0; blk+7 <= len(code); blk += 7 {
		code[blk+rng.Intn(7)] ^= 1
	}
	data, corr := DecodeHamming(code)
	if corr != len(code)/7 {
		t.Fatalf("corrections %d, want one per block", corr)
	}
	for i := range bits {
		if data[i] != bits[i] {
			t.Fatalf("bit %d wrong after correction", i)
		}
	}
}

func TestHammingPadding(t *testing.T) {
	bits := []int{1, 0, 1} // not a multiple of 4
	code := EncodeHamming(bits)
	if len(code) != 7 {
		t.Fatalf("code length %d", len(code))
	}
	data, _ := DecodeHamming(code)
	for i := range bits {
		if data[i] != bits[i] {
			t.Fatal("padding broke round trip")
		}
	}
}

func TestLeakSecretECCImprovesOverRaw(t *testing.T) {
	// Under loud noise, ECC-protected transmission must beat the raw
	// channel at equal samples per (data) bit... the fair comparison
	// is per-transmitted-bit: ECC trades 7/4 rate for correction.
	mkNoise := func() *noise.System {
		n := noise.NewSystem(77)
		n.Sigma = 11
		return n
	}
	a := MustNew(Options{Seed: 30, UseEvictionSets: true, Noise: mkNoise()})
	cal := calibrate(t, a, 200)
	bits := RandomSecret(280, 31)

	raw := leak(t, a, bits, cal.Threshold, 1)
	_, eccAcc, corrections, err := a.LeakSecretECC(bits, cal.Threshold, 1)
	if err != nil {
		t.Fatal(err)
	}
	if corrections == 0 {
		t.Fatal("no corrections fired — noise too quiet for this test")
	}
	if eccAcc < raw.Accuracy+0.02 {
		t.Fatalf("ECC accuracy %.3f not meaningfully above raw %.3f", eccAcc, raw.Accuracy)
	}
	// With 3-sample voting underneath, ECC should push the channel to
	// near-reliability.
	_, eccAcc3, _, err := a.LeakSecretECC(bits, cal.Threshold, 3)
	if err != nil {
		t.Fatal(err)
	}
	if eccAcc3 < 0.97 {
		t.Fatalf("ECC+voting accuracy %.3f, want ≥0.97", eccAcc3)
	}
}
