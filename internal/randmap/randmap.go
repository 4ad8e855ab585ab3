// Package randmap provides randomized cache index mappers in the spirit
// of CEASER (Qureshi, MICRO'18). CleanupSpec cannot afford restoration on
// lower-level caches, so it protects them with randomized address
// mapping instead; unXpec's threat model (§III-A) includes this.
//
// The mapper is a small keyed permutation over line addresses: a
// four-round balanced Feistel network whose round function is an xorshift
// mix of the half-block and a per-round key. A Feistel construction is a
// bijection by design, which matters: two distinct lines must never map
// to the same (set, tag) pair or the simulated cache would alias.
package randmap

import (
	"repro/internal/mem"
)

// Feistel is a keyed bijective mapper over line indices.
type Feistel struct {
	keys   [4]uint64
	rounds int
	// width is the bit width of the permuted line-index domain. Line
	// indices above the domain pass through a fallback mix (still
	// deterministic, still set-uniform).
	width uint
}

// NewFeistel derives a mapper from a seed key. The same seed yields the
// same mapping, so experiments are reproducible; remapping (CEASER's
// periodic rekeying) is modelled by constructing a new mapper.
func NewFeistel(seed uint64) *Feistel {
	f := &Feistel{rounds: 4, width: 48}
	k := seed
	for i := range f.keys {
		// SplitMix64 key schedule.
		k += 0x9e3779b97f4a7c15
		z := k
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		f.keys[i] = z ^ (z >> 31)
	}
	return f
}

// round is the Feistel round function: a cheap, well-mixed hash of the
// half-block with the round key.
func round(half, key uint64) uint64 {
	x := half ^ key
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Permute applies the keyed bijection to a line index within the
// 2^width domain.
func (f *Feistel) Permute(lineIdx uint64) uint64 {
	half := f.width / 2
	mask := (uint64(1) << half) - 1
	l := (lineIdx >> half) & mask
	r := lineIdx & mask
	for i := 0; i < f.rounds; i++ {
		l, r = r, l^(round(r, f.keys[i])&mask)
	}
	return (l << half) | r
}

// Unpermute inverts Permute.
func (f *Feistel) Unpermute(encIdx uint64) uint64 {
	half := f.width / 2
	mask := (uint64(1) << half) - 1
	l := (encIdx >> half) & mask
	r := encIdx & mask
	for i := f.rounds - 1; i >= 0; i-- {
		l, r = r^(round(l, f.keys[i])&mask), l
	}
	return (l << half) | r
}

// MapIndex implements cache.IndexMapper: the set index is the low bits
// of the permuted line index.
func (f *Feistel) MapIndex(line mem.Addr, sets int) uint64 {
	return f.Permute(line.LineIndex()) & uint64(sets-1)
}

// Name implements cache.IndexMapper.
func (f *Feistel) Name() string { return "ceaser-feistel" }
