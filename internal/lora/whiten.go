package lora

// Payload whitening. LoRa XORs the payload with a pseudo-random sequence to
// avoid long runs. We use the byte-wise LFSR with polynomial
// x⁸+x⁶+x⁵+x⁴+1 seeded with 0xFF, one of the documented Semtech variants;
// whitening and de-whitening are the same XOR operation so the chain is
// self-inverse.

const whitenSeed = 0xFF

// whitenNext advances the whitening LFSR one byte.
func whitenNext(state uint8) uint8 {
	// Fibonacci LFSR stepped 8 times; per-bit feedback b7 ^ b5 ^ b4 ^ b3
	// corresponds to the x⁸+x⁶+x⁵+x⁴+1 polynomial.
	s := state
	for i := 0; i < 8; i++ {
		fb := (s>>7 ^ s>>5 ^ s>>4 ^ s>>3) & 1
		s = s<<1 | fb
	}
	return s
}

// Whiten XORs data in place with the whitening sequence. Applying it twice
// restores the original data.
func Whiten(data []uint8) {
	s := uint8(whitenSeed)
	for i := range data {
		data[i] ^= s
		s = whitenNext(s)
	}
}
