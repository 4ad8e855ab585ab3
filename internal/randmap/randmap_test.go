package randmap

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func TestPermuteInvertible(t *testing.T) {
	f := NewFeistel(0xdead)
	check := func(idx uint64) bool {
		idx &= (1 << 48) - 1
		return f.Unpermute(f.Permute(idx)) == idx
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestPermuteIsBijectionOnSmallRange(t *testing.T) {
	f := NewFeistel(7)
	seen := map[uint64]bool{}
	for i := uint64(0); i < 4096; i++ {
		p := f.Permute(i)
		if seen[p] {
			t.Fatalf("collision at input %d", i)
		}
		seen[p] = true
	}
}

func TestDifferentSeedsDifferentMappings(t *testing.T) {
	a, b := NewFeistel(1), NewFeistel(2)
	same := 0
	const n = 1024
	for i := uint64(0); i < n; i++ {
		if a.Permute(i) == b.Permute(i) {
			same++
		}
	}
	if same > n/8 {
		t.Fatalf("seeds 1 and 2 agree on %d/%d inputs — key schedule broken?", same, n)
	}
}

func TestMapIndexUniformity(t *testing.T) {
	// Mapping sequential lines through the cipher should spread across
	// sets roughly uniformly (chi-square sanity bound).
	f := NewFeistel(99)
	const sets = 64
	counts := make([]int, sets)
	const lines = 64 * 256
	for i := 0; i < lines; i++ {
		counts[f.MapIndex(mem.Addr(i*mem.LineSize), sets)]++
	}
	want := float64(lines) / sets
	for s, c := range counts {
		if float64(c) < want*0.5 || float64(c) > want*1.5 {
			t.Fatalf("set %d has %d lines, expected ≈%.0f", s, c, want)
		}
	}
}

func TestMapperName(t *testing.T) {
	if NewFeistel(0).Name() != "ceaser-feistel" {
		t.Fatal("unexpected mapper name")
	}
}

func TestPermuteDeterministic(t *testing.T) {
	a, b := NewFeistel(42), NewFeistel(42)
	for i := uint64(0); i < 100; i++ {
		if a.Permute(i) != b.Permute(i) {
			t.Fatal("same seed must give same permutation")
		}
	}
}
