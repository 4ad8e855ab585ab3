package unxpec

// Error correction for the covert channel. The raw channel decodes
// single samples at ≈87–92% (§VI-C); real covert channels layer coding
// on top. Hamming(7,4) corrects any single bit error per 7-bit block,
// which against an independent ≈10% bit-error channel pushes block
// failure below 15% — and combined with 3-sample voting (≈1% bit error)
// below 0.2%. EncodeHamming/DecodeHamming are used by
// examples/covertchannel and benchmarked in bench_test.go.

// hammingG maps 4 data bits to 7 coded bits (positions 1..7, with
// parity bits at 1, 2, 4 — the classic construction).
func hammingEncodeNibble(d [4]int) [7]int {
	var c [7]int
	// Data bits at positions 3,5,6,7 (1-indexed).
	c[2], c[4], c[5], c[6] = d[0], d[1], d[2], d[3]
	// Parity bits cover positions with the matching index bit set.
	c[0] = c[2] ^ c[4] ^ c[6] // covers 1,3,5,7
	c[1] = c[2] ^ c[5] ^ c[6] // covers 2,3,6,7
	c[3] = c[4] ^ c[5] ^ c[6] // covers 4,5,6,7
	return c
}

// hammingDecodeBlock corrects up to one error and returns the 4 data
// bits plus whether a correction was applied.
func hammingDecodeBlock(c [7]int) (d [4]int, corrected bool) {
	s1 := c[0] ^ c[2] ^ c[4] ^ c[6]
	s2 := c[1] ^ c[2] ^ c[5] ^ c[6]
	s4 := c[3] ^ c[4] ^ c[5] ^ c[6]
	syndrome := s1 + s2*2 + s4*4
	if syndrome != 0 {
		c[syndrome-1] ^= 1
		corrected = true
	}
	d[0], d[1], d[2], d[3] = c[2], c[4], c[5], c[6]
	return d, corrected
}

// EncodeHamming expands data bits into Hamming(7,4) code bits. The
// input is padded with zeros to a multiple of 4.
func EncodeHamming(bits []int) []int {
	padded := append([]int(nil), bits...)
	for len(padded)%4 != 0 {
		padded = append(padded, 0)
	}
	out := make([]int, 0, len(padded)/4*7)
	for i := 0; i < len(padded); i += 4 {
		var d [4]int
		copy(d[:], padded[i:i+4])
		c := hammingEncodeNibble(d)
		out = append(out, c[:]...)
	}
	return out
}

// DecodeHamming recovers data bits from code bits (length must be a
// multiple of 7), returning the data and the number of corrected
// single-bit errors.
func DecodeHamming(code []int) (data []int, corrections int) {
	for i := 0; i+7 <= len(code); i += 7 {
		var c [7]int
		copy(c[:], code[i:i+7])
		d, fixed := hammingDecodeBlock(c)
		if fixed {
			corrections++
		}
		data = append(data, d[:]...)
	}
	return data, corrections
}

// LeakSecretECC transmits data bits through the channel with
// Hamming(7,4) protection: the sender encodes, the receiver measures
// one (or samplesPerBit) rounds per code bit and decodes with
// correction. It returns the recovered data bits (trimmed to
// len(bits)), the post-correction accuracy, and how many corrections
// fired; a failed round (LeakSecretChecked) aborts the transfer with
// its error.
func (a *Attack) LeakSecretECC(bits []int, threshold float64, samplesPerBit int) (recovered []int, accuracy float64, corrections int, err error) {
	code := EncodeHamming(bits)
	raw, err := a.LeakSecretChecked(code, threshold, samplesPerBit)
	if err != nil {
		return nil, 0, 0, err
	}
	data, corr := DecodeHamming(raw.Guesses)
	if len(data) > len(bits) {
		data = data[:len(bits)]
	}
	correct := 0
	for i := range data {
		if data[i] == bits[i] {
			correct++
		}
	}
	if len(data) > 0 {
		accuracy = float64(correct) / float64(len(data))
	}
	return data, accuracy, corr, nil
}
